"""The repository's benchmark: what each workload costs to simulate, what
the modeled system delivers on it, and which ``repro.<package>`` spent
the host time. See ``bench/README.md``; run ``python -m bench``.

It lives outside ``src/`` so that it stays outside the code it measures.
"""
