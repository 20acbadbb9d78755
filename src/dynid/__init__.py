"""Dynamic model identification for serial manipulators."""
