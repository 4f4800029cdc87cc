"""The performance ledger: the repo's benchmark (see README.md here).

Run it through ``python3 benchmarks/ledger/run.py``; nothing in this
package is imported by the engine, and nothing here edits the engine —
every layer is measured from outside.
"""
