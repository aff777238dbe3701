"""Bounds on the sequential topological complexity of unordered graph
configuration spaces, with machine-checked free-group lemmas.  Each name is
imported from the module that defines it (``from gbtc.graph_core import
classify``), and ``import gbtc`` loads no other module."""
