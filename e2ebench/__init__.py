"""End-to-end benchmark of the ASM reproduction (see ``BENCHMARK.md``)."""
