"""Host-cost benchmark of the FreePart simulator (see README.md)."""
