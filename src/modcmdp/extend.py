"""Empty. Rewards state their own curvature (``concave``, ``convex``) and
a quadratic gives its tangent plane (:mod:`modcmdp.model`); the occupancy
LP writes every lift itself (:mod:`modcmdp.occupancy`). The module stays
importable only because ``perfbench/spans.py`` imports every module of
the package by name, this one included.
"""
