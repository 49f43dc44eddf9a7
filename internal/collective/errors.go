package collective

import "fmt"

// Argument validation shared by every public entry point. The simulator
// used to model whatever it was handed — a negative byte count silently
// produced negative transfer times and energies that poisoned whole
// experiment sweeps. Entry points now reject malformed arguments with a
// returned error before any rank touches the network.

// checkBytes rejects non-positive fixed payload sizes.
func checkBytes(op string, bytes int64) error {
	if bytes <= 0 {
		return fmt.Errorf("collective: %s: bytes must be positive, got %d", op, bytes)
	}
	return nil
}

// checkRoot rejects roots outside the communicator.
func checkRoot(op string, root, size int) error {
	if root < 0 || root >= size {
		return fmt.Errorf("collective: %s: root %d outside [0,%d)", op, root, size)
	}
	return nil
}

// checkSizeMatrix validates a per-pair size function: non-nil with no
// negative entries. Zero-size blocks are legal — a rank may send or
// receive nothing.
func checkSizeMatrix(op string, size int, sizeOf func(src, dst int) int64) error {
	if sizeOf == nil {
		return fmt.Errorf("collective: %s: nil size function", op)
	}
	for s := 0; s < size; s++ {
		for d := 0; d < size; d++ {
			if b := sizeOf(s, d); b < 0 {
				return fmt.Errorf("collective: %s: negative size %d for pair (%d,%d)", op, b, s, d)
			}
		}
	}
	return nil
}
