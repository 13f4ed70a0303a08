"""Semiring-generic weighted finite-state acceptor/transducer toolkit."""

from .errors import (CapExceededError, ContractError, DivergenceError,
                     FsmError, KindMismatchError, NoPathError, ParseError,
                     SemiringError, SymbolError)
from .machine import (ANY, EPSILON, EPSILON_SYMBOL, Machine, SymbolTable,
                      accepted_pairs, connect, observation_machine, read_text,
                      weight_of, write_text)
from .ops import (closure, complement, compose, concat, difference, intersect,
                  project, reverse, union)
from .optimize import (compact, determinize, equivalent, local_determinize,
                       minimize, push, twins_test)
from .lazy import (LRU, MEMOIZE, REFCOUNT, CachedMachine, LazyComposition,
                   cached, expand, lazy_compose)
from .decode import (CascadeSpec, Lattice, backward_distances, beam_decode,
                     best_path, lattice_prune, rescore, shortest_distance)
from .ngram import (BackoffModel, CountTable, build_lm_fsa, count_ngrams,
                    good_turing, katz_model, mle, read_arpa, write_arpa)
from .rewrite import (DecisionTreeSpec, Rule, TreeLeaf, apply_rewrite,
                      compile_regex, compile_tree, compile_weighted_rule,
                      intersect_samelength, marker, parse_rule_file,
                      parse_tree)
from .semiring import Semiring

__version__ = "0.1.0"
