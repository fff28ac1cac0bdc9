"""Puts this checkout's src on sys.path, so that any test file, run alone
or with the rest, imports the package from here without an install."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "src"))
