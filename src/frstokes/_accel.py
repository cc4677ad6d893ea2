"""Name of the numerical backend, recorded in benchmark records.

The package has a single pure-numpy implementation of every algorithm; this
constant stays so that tools which record or compare the backend of a run
keep working.
"""

BACKEND = "numpy"
