package cdss

import (
	"orchestra/internal/tuple"
)

// What follows is used only by this package's tests.

// PendingUpdates reports the size of the unpublished log.
func (p *Participant) PendingUpdates() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log)
}

// LastSync reports the epoch of the participant's most recent import.
func (p *Participant) LastSync() tuple.Epoch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSync
}
