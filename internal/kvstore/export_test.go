package kvstore

// What follows is used only by this package's tests.

// Delete removes key if present; reports whether it existed.
func (s *Store) Delete(key []byte) (bool, error) {
	return s.apply(1, func(int) (byte, []byte, []byte) { return opDelete, key, nil })
}
