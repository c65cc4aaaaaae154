"""Built-in staticcheck rules.

Importing this package registers every rule with
:data:`repro.staticcheck.engine.RULE_REGISTRY`:

====  =====================================================
R0    no stale ``# staticcheck: disable=`` suppressions
R1    no unseeded RNG / wall-clock reads
R2    no raw float ``==``/``!=`` on time or bandwidth values
R5    no iteration over unordered sets
====  =====================================================

Every rule checks one module at a time, and every module of the tree;
R0 is emitted by the engine itself from its suppression-usage ledger.
Retired ids (R3, R4, R6, R7, R8, R9) are never reused.

See ``docs/STATICCHECK.md`` for rationale and examples.
"""

from repro.staticcheck.rules import determinism  # noqa: F401
from repro.staticcheck.rules import floatcmp  # noqa: F401
from repro.staticcheck.rules import suppressions  # noqa: F401
