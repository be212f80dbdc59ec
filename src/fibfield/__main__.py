import gc
import sys

from .cli import main

code = main()
# Move every live object to the permanent generation, so the collections the
# interpreter runs at shutdown have nothing to scan; atexit handlers, stream
# flushes and refcount finalizers still run.  Not in main, which tests call
# in-process: what it froze there would never be freed.
gc.freeze()
sys.exit(code)
