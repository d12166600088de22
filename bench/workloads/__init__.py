"""One module per layer family: data path, control plane, whole system."""
