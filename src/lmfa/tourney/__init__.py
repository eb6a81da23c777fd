"""Match runner and round-robin tournament scheduler."""
