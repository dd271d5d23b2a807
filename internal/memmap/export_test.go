package memmap

// Frozen reports whether Freeze has been called.
func (s *AddressSpace) Frozen() bool { return s.frozen }
