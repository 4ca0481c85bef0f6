"""The repo's one performance benchmark (see README.md in this directory)."""
