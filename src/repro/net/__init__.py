"""IPv4 and longest-prefix-match substrate.

Everything the clustering pipeline needs to manipulate addresses and
prefixes: strict dotted-quad parsing, canonical CIDR :class:`Prefix`
objects, a path-compressed radix trie for router-style longest-prefix
matching, alternative LPM engines for cross-checking and benchmarking,
and CIDR route aggregation.
"""
