"""Every printed paper table and figure, pinned to the byte.

``python -m repro.eval`` prints Table I and Figs. 3-19 from seeded,
deterministic runs, so a refactor that keeps the model's behaviour keeps
that output byte for byte. This runs the CLI's ``main([])`` in process
with stdout captured (and every warning an error, as the CLI step of CI
runs it) and pins the output's SHA-256. A change that moves a printed
figure on purpose records the new digest here and says why.
"""

import contextlib
import hashlib
import io
import warnings

from repro.eval.__main__ import main

EVAL_STDOUT_SHA256 = (
    "1ec4dba2ff8475b200390ed7641fb534944d1f112d202c605d3f946fada9843a"
)


def test_every_printed_table_and_figure_is_byte_identical():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([]) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == EVAL_STDOUT_SHA256
