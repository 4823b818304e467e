"""Benchmark of the KG build, checkpoint resume and the operator mix
(see ``kgbench/README.md``)."""
