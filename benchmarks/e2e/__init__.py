"""End-to-end benchmark of the served and batch DEWS paths (see README.md)."""
