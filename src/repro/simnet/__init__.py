"""Simulated Internet substrate.

The paper measures its clustering against the live 1999 Internet via
BGP dumps, nslookup, and traceroute.  This package provides the
synthetic stand-in: a generated ground-truth topology (ASes, registry
allocations, administrative entities, leaf networks) plus deterministic
reverse-DNS and traceroute oracles over it.  See DESIGN.md's
substitution table for why each stand-in preserves the behaviour the
algorithms depend on.
"""
