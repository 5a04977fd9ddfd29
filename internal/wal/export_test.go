package wal

// What follows is used only by this package's tests.

// Disarm stops injecting and resets the step counter.
func (f *FaultFS) Disarm() {
	f.mu.Lock()
	f.step, f.failAt, f.dead = 0, -1, false
	f.mu.Unlock()
}
