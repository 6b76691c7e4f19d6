"""BGP routing-table substrate.

Textual dump formats and their unification (§3.1.2), routing-table
snapshots and the merged prefix table (§3.1), the fourteen-source
collection of Table 1, synthetic snapshot generation from the
ground-truth topology, and the BGP-dynamics study machinery of §3.4.
"""
