"""Built-in staticcheck rules.

Importing this package registers every rule with
:data:`repro.staticcheck.engine.RULE_REGISTRY`:

====  =====================================================
R0    no stale ``# staticcheck: disable=`` suppressions
R1    no unseeded RNG / wall-clock reads in scheduling code
R2    no raw float ``==``/``!=`` on time or bandwidth values
R5    no iteration over unordered sets in scheduling code
R7    no impurity reachable from fingerprint/codec entry points
R9    public surface leaks only repro.errors / documented builtins
====  =====================================================

R1, R2 and R5 are per-module; R7 and R9 are whole-program rules driven
by the project call graph (:mod:`repro.staticcheck.graph`) and the worklist
dataflow engine (:mod:`repro.staticcheck.flow`); R0 is emitted by the
engine itself from its suppression-usage ledger.

See ``docs/STATICCHECK.md`` for rationale and examples.
"""

from repro.staticcheck.rules import determinism  # noqa: F401
from repro.staticcheck.rules import exceptions  # noqa: F401
from repro.staticcheck.rules import floatcmp  # noqa: F401
from repro.staticcheck.rules import purity  # noqa: F401
from repro.staticcheck.rules import suppressions  # noqa: F401
