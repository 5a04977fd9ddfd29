// Package cdss implements the ORCHESTRA collaborative-data-sharing upper
// layers the storage and query subsystem serves (paper §I-II, Fig 1):
// participants (peers) with autonomous local databases and schemas, the
// batched publish/import cycle, update exchange through schema mappings
// executed as distributed queries, and reconciliation — transaction-level
// conflict detection with priority-based resolution, tolerating
// disagreement between peers [2], [3].
//
// The paper's CDSS workflow: each participant edits only its local DBMS;
// Publish pushes its update log into the replicated versioned storage
// (advancing the global epoch); Import runs the participant's schema
// mappings as select-project-join queries over a consistent snapshot,
// detects conflicts among the candidate updates, resolves them by peer
// priority, and installs the accepted data into the local replica.
package cdss

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/optimizer"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// Mapping is one schema mapping of update exchange: a single-block query
// over published relations whose answer populates a local target relation.
// Peer identifies whose published data the mapping draws from (used for
// conflict attribution and priority resolution).
type Mapping struct {
	Peer   string
	Target string
	SQL    string
}

// Op is a local-update kind.
type Op = vstore.Op

// Local-update kinds, re-exported from the storage layer.
const (
	OpInsert = vstore.OpInsert
	OpUpdate = vstore.OpUpdate
	OpDelete = vstore.OpDelete
)

// LocalUpdate is one entry of a participant's DBMS update log.
type LocalUpdate struct {
	Relation string
	Op       Op
	Row      tuple.Row
}

// Participant is one CDSS peer: a local DBMS instance (its own schema), an
// update log, a set of import mappings, and a trust priority.
type Participant struct {
	Name     string
	Priority int // higher wins conflicts

	node *cluster.Node
	eng  *engine.Engine

	mu       sync.Mutex
	schemas  map[string]*tuple.Schema // local relations
	instance map[string]map[string]tuple.Row
	log      []LocalUpdate
	mappings []Mapping
	lastSync tuple.Epoch
}

// NewParticipant attaches a peer to its storage/query node.
func NewParticipant(name string, node *cluster.Node, eng *engine.Engine, priority int) *Participant {
	return &Participant{
		Name:     name,
		Priority: priority,
		node:     node,
		eng:      eng,
		schemas:  make(map[string]*tuple.Schema),
		instance: make(map[string]map[string]tuple.Row),
	}
}

// DefineLocal declares a local relation in the participant's schema.
func (p *Participant) DefineLocal(s *tuple.Schema) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.schemas[s.Relation] = s
	if p.instance[s.Relation] == nil {
		p.instance[s.Relation] = make(map[string]tuple.Row)
	}
}

// AddMapping registers an import mapping.
func (p *Participant) AddMapping(m Mapping) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mappings = append(p.mappings, m)
}

// Apply executes a local update against the participant's own DBMS and
// appends it to the (unpublished) update log — the only way data enters a
// CDSS (§II: users first make updates only to their local storage).
func (p *Participant) Apply(relation string, op Op, row tuple.Row) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.schemas[relation]
	if !ok {
		return fmt.Errorf("cdss: %s has no local relation %q", p.Name, relation)
	}
	if len(row) != s.Arity() && op != OpDelete {
		return fmt.Errorf("cdss: row arity %d for %s", len(row), relation)
	}
	key := string(tuple.EncodeKey(row, s.KeyColumns()))
	inst := p.instance[relation]
	switch op {
	case OpInsert, OpUpdate:
		inst[key] = row
	case OpDelete:
		delete(inst, key)
	default:
		return fmt.Errorf("cdss: bad op %v", op)
	}
	p.log = append(p.log, LocalUpdate{Relation: relation, Op: op, Row: row})
	return nil
}

// Rows returns a snapshot of a local relation's current instance.
func (p *Participant) Rows(relation string) []tuple.Row {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]tuple.Row, 0, len(p.instance[relation]))
	for _, r := range p.instance[relation] {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cmp(out[j]) < 0 })
	return out
}

// PendingUpdates reports the size of the unpublished log.
func (p *Participant) PendingUpdates() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log)
}

// PublishedName is the globally visible name of a peer's local relation:
// each participant's published updates are disjoint from all others' (§IV).
func PublishedName(peer, relation string) string {
	return peer + "_" + relation
}

// EnsurePublished creates the published counterpart of a local relation if
// it does not exist yet.
func (p *Participant) EnsurePublished(ctx context.Context, relation string) error {
	p.mu.Lock()
	s, ok := p.schemas[relation]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("cdss: no local relation %q", relation)
	}
	pub, err := tuple.NewSchema(PublishedName(p.Name, relation), s.Columns, keyNames(s)...)
	if err != nil {
		return err
	}
	err = p.node.CreateRelation(ctx, pub)
	if errors.Is(err, cluster.ErrRelationExists) {
		return nil
	}
	return err
}

func keyNames(s *tuple.Schema) []string {
	out := make([]string, len(s.Key))
	for i, k := range s.Key {
		out[i] = s.Columns[k].Name
	}
	return out
}

// Publish pushes the participant's update log to the versioned storage as
// one batch per touched relation, advancing the global epoch, and clears
// the log. It returns the highest epoch written.
func (p *Participant) Publish(ctx context.Context) (tuple.Epoch, error) {
	p.mu.Lock()
	byRel := make(map[string][]vstore.Update)
	for _, u := range p.log {
		byRel[u.Relation] = append(byRel[u.Relation], vstore.Update{Op: u.Op, Row: u.Row})
	}
	p.log = nil
	p.mu.Unlock()

	var last tuple.Epoch
	for rel, ups := range byRel {
		if err := p.EnsurePublished(ctx, rel); err != nil {
			return 0, err
		}
		e, err := p.node.Publish(ctx, PublishedName(p.Name, rel), ups)
		if err != nil {
			return 0, err
		}
		if e > last {
			last = e
		}
	}
	return last, nil
}

// Candidate is one imported row: the mapping's output attributed to its
// source peer, for reconciliation.
type Candidate struct {
	Peer   string
	Target string
	Row    tuple.Row
}

// Conflict records one reconciliation decision: candidates from different
// peers asserting different values for the same target key.
type Conflict struct {
	Target   string
	Key      string
	Winner   Candidate
	Rejected []Candidate
}

// ImportReport summarizes an import.
type ImportReport struct {
	Epoch     tuple.Epoch
	Imported  int        // rows installed into the local instance
	Conflicts []Conflict // resolved conflicts
}

// Import performs update exchange and reconciliation (§II): it pins the
// current global epoch, runs every mapping as a distributed query over
// that snapshot, detects key conflicts among the candidate rows, resolves
// them by source-peer priority (ties broken deterministically by peer
// name), and installs the accepted rows into the local instance.
func (p *Participant) Import(ctx context.Context, priorities map[string]int) (*ImportReport, error) {
	// Determine the current epoch through the gossip protocol (§IV),
	// pulling from peers so a just-published batch elsewhere is visible.
	epoch := p.node.Gossip().Sync(ctx, p.node.Table().Members())

	p.mu.Lock()
	mappings := append([]Mapping(nil), p.mappings...)
	p.mu.Unlock()

	var candidates []Candidate
	for _, m := range mappings {
		planned, err := optimizer.PlanSQL(ctx, p.node, m.SQL)
		if err != nil {
			return nil, fmt.Errorf("cdss: mapping for %s: %w", m.Target, err)
		}
		res, err := p.eng.Run(ctx, planned.Plan, engine.Options{
			Epoch:    epoch,
			Recovery: engine.RecoverRestart,
		})
		if err != nil {
			return nil, fmt.Errorf("cdss: update exchange for %s: %w", m.Target, err)
		}
		for _, row := range res.Batch.Rows() {
			candidates = append(candidates, Candidate{Peer: m.Peer, Target: m.Target, Row: row})
		}
	}

	accepted, conflicts, err := p.reconcile(candidates, priorities)
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	imported := 0
	for _, c := range accepted {
		s := p.schemas[c.Target]
		key := string(tuple.EncodeKey(c.Row, s.KeyColumns()))
		cur, exists := p.instance[c.Target][key]
		if !exists || !cur.Equal(c.Row) {
			p.instance[c.Target][key] = c.Row
			imported++
		}
	}
	p.lastSync = epoch
	p.mu.Unlock()

	return &ImportReport{Epoch: epoch, Imported: imported, Conflicts: conflicts}, nil
}

// reconcile groups candidates by (target, key) and resolves disagreements:
// identical rows from multiple peers corroborate (no conflict); differing
// rows conflict and the highest-priority peer wins. The paper's
// reconciliation operates on transactions; a peer's whole candidate set
// for one key plays that role here, and rejection is per conflicting
// assertion (tolerating disagreement without blocking the import).
func (p *Participant) reconcile(cands []Candidate, priorities map[string]int) ([]Candidate, []Conflict, error) {
	p.mu.Lock()
	defer p.mu.Unlock()

	type slot struct {
		byPeer map[string]Candidate
		order  []string
	}
	slots := make(map[string]*slot)
	var slotOrder []string
	for _, c := range cands {
		s, ok := p.schemas[c.Target]
		if !ok {
			return nil, nil, fmt.Errorf("cdss: mapping targets unknown local relation %q", c.Target)
		}
		if len(c.Row) != s.Arity() {
			return nil, nil, fmt.Errorf("cdss: mapping for %s produced arity %d, want %d",
				c.Target, len(c.Row), s.Arity())
		}
		key := c.Target + "\x00" + string(tuple.EncodeKey(c.Row, s.KeyColumns()))
		sl := slots[key]
		if sl == nil {
			sl = &slot{byPeer: make(map[string]Candidate)}
			slots[key] = sl
			slotOrder = append(slotOrder, key)
		}
		if _, dup := sl.byPeer[c.Peer]; !dup {
			sl.order = append(sl.order, c.Peer)
		}
		sl.byPeer[c.Peer] = c
	}
	sort.Strings(slotOrder)

	prio := func(peer string) int { return priorities[peer] }
	var accepted []Candidate
	var conflicts []Conflict
	for _, key := range slotOrder {
		sl := slots[key]
		sort.Strings(sl.order)
		// Pick the winner: highest priority, then lexical peer name.
		winner := sl.byPeer[sl.order[0]]
		winPeer := sl.order[0]
		for _, peer := range sl.order[1:] {
			if prio(peer) > prio(winPeer) {
				winner, winPeer = sl.byPeer[peer], peer
			}
		}
		var rejected []Candidate
		for _, peer := range sl.order {
			if peer == winPeer {
				continue
			}
			if !sl.byPeer[peer].Row.Equal(winner.Row) {
				rejected = append(rejected, sl.byPeer[peer])
			}
		}
		accepted = append(accepted, winner)
		if len(rejected) > 0 {
			conflicts = append(conflicts, Conflict{
				Target:   winner.Target,
				Key:      key,
				Winner:   winner,
				Rejected: rejected,
			})
		}
	}
	return accepted, conflicts, nil
}

// LastSync reports the epoch of the participant's most recent import.
func (p *Participant) LastSync() tuple.Epoch {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSync
}
