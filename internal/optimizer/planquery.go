package optimizer

import (
	"context"
	"errors"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
)

// Planned is a query ready to run: the parsed text, the optimizer's plan
// and costing, the output column names and the plan's explanation.
type Planned struct {
	Query   *sql.Query
	Plan    *engine.Plan
	Info    *Info
	Columns []string
	Explain string
}

// PlanSQL parses a single-block SQL query and plans it with PlanQuery.
func PlanSQL(ctx context.Context, node *cluster.Node, src string) (*Planned, error) {
	q, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return PlanQuery(ctx, node, q)
}

// PlanQuery is the one road from a parsed query to an executable plan.
// The optimizer's catalog is filled once per call from the replicated
// catalog records of the query's FROM relations, as node sees them: the
// schema, and the row count every publish writes atomically with its
// epoch, so planning sees real statistics — across restarts too. The
// cluster size comes from node's routing table.
func PlanQuery(ctx context.Context, node *cluster.Node, q *sql.Query) (*Planned, error) {
	cat := &MapCatalog{Schemas: map[string]*tuple.Schema{}, Tables: map[string]TableStats{}}
	for _, ref := range q.From {
		if _, fetched := cat.Schemas[ref.Table]; fetched {
			continue
		}
		rc, err := node.GetCatalog(ctx, ref.Table)
		if errors.Is(err, cluster.ErrNoSuchRelation) {
			return nil, &UnknownTableError{Table: ref.Table}
		}
		if err != nil {
			return nil, err
		}
		cat.Schemas[ref.Table] = rc.Schema
		cat.Tables[ref.Table] = TableStats{Rows: rc.Rows}
	}
	plan, info, err := Build(q, cat, Environment{Nodes: node.Table().Size()})
	if err != nil {
		return nil, err
	}
	cols := q.OutputColumns(func(table string) ([]string, bool) {
		s, ok := cat.Schemas[table]
		if !ok {
			return nil, false
		}
		names := make([]string, len(s.Columns))
		for i, col := range s.Columns {
			names[i] = col.Name
		}
		return names, true
	})
	return &Planned{Query: q, Plan: plan, Info: info, Columns: cols, Explain: Explain(plan, info)}, nil
}
