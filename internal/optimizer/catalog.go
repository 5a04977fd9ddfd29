// Package optimizer implements ORCHESTRA's query optimizer (paper §VI
// "Query Optimizer"): a Volcano-style [18] transformational optimizer for
// single-block SQL, using top-down enumeration of plans with memoization
// and branch-and-bound pruning, considering bushy as well as linear join
// trees. Costs are estimated from machine CPU/disk rates and bandwidth,
// assuming each horizontally partitioned relation is evenly distributed by
// the storage layer across all nodes, and costing each stage at the
// slowest node or link that must be used.
package optimizer

import (
	"orchestra/internal/tuple"
)

// TableStats summarizes a relation for cardinality estimation.
type TableStats struct {
	// Rows is the (estimated) tuple count.
	Rows int64
	// Distinct estimates distinct values per column name. Missing columns
	// default to Rows for key columns and Rows/10 otherwise.
	Distinct map[string]int64
}

// Catalog resolves table schemas and statistics for the optimizer.
type Catalog interface {
	// Schema returns the relation's schema, or an error if unknown.
	Schema(table string) (*tuple.Schema, error)
	// Stats returns statistics for the relation; a zero value is allowed.
	Stats(table string) TableStats
}

// MapCatalog is a Catalog backed by in-memory maps: tests fill it by hand,
// PlanQuery from the replicated catalog records of one query's
// FROM relations.
type MapCatalog struct {
	Schemas map[string]*tuple.Schema
	Tables  map[string]TableStats
}

// Schema implements Catalog.
func (c *MapCatalog) Schema(table string) (*tuple.Schema, error) {
	if s, ok := c.Schemas[table]; ok {
		return s, nil
	}
	return nil, &UnknownTableError{Table: table}
}

// Stats implements Catalog.
func (c *MapCatalog) Stats(table string) TableStats {
	return c.Tables[table]
}

// UnknownTableError reports a FROM reference with no catalog entry.
type UnknownTableError struct{ Table string }

func (e *UnknownTableError) Error() string {
	return "optimizer: unknown table " + e.Table
}

// Environment models the execution substrate for costing, per the paper:
// previously measured CPU and disk rates plus pairwise bandwidth, with
// each stage costed at the slowest participating node or link.
type Environment struct {
	// Nodes is the cluster size (horizontal partitions per relation).
	Nodes int
	// TupleCPU is seconds of CPU per tuple processed at the slowest node.
	TupleCPU float64
	// TupleDisk is seconds per tuple scanned from local storage.
	TupleDisk float64
	// LinkBytesPerSec is the slowest inter-node link's bandwidth.
	LinkBytesPerSec float64
	// InitiatorBytesPerSec is the query initiator's inbound bandwidth (the
	// bottleneck when large results are collected, as in STBench Copy).
	InitiatorBytesPerSec float64
}

// WithDefaults fills unset fields with values calibrated for commodity
// nodes on a gigabit LAN.
func (e Environment) WithDefaults() Environment {
	if e.Nodes <= 0 {
		e.Nodes = 1
	}
	if e.TupleCPU <= 0 {
		e.TupleCPU = 1e-6
	}
	if e.TupleDisk <= 0 {
		e.TupleDisk = 2e-6
	}
	if e.LinkBytesPerSec <= 0 {
		e.LinkBytesPerSec = 100e6
	}
	if e.InitiatorBytesPerSec <= 0 {
		e.InitiatorBytesPerSec = e.LinkBytesPerSec
	}
	return e
}

// columnWidth estimates encoded bytes for a column type.
func columnWidth(t tuple.Type) float64 {
	switch t {
	case tuple.Int64:
		return 9
	case tuple.Float64:
		return 9
	case tuple.String:
		return 27 // the paper's STBench tables carry 25-char strings
	default:
		return 9
	}
}
