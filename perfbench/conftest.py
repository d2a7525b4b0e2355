# Generated inputs and the self-tests' scratch copies live here, not tests.
collect_ignore_glob = ["_work/*"]
