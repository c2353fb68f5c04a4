"""``pytest perfbench/`` imports the simulator from this checkout's ``src/``."""

from perfbench import use_source_tree

use_source_tree()
