"""Agent gateway: scripted bots and remote models behind one interface."""
