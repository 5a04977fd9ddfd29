package main

import (
	"reflect"
	"testing"
)

func sqlOf(in *workloadInput) [][]string {
	var out [][]string
	for _, cycle := range in.cycles {
		var s []string
		for _, o := range cycle {
			s = append(s, o.class+": "+o.sql)
		}
		out = append(out, s)
	}
	return out
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, err := generate(sp.name, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(sp.name, 7, 10)
		c, _ := generate(sp.name, 8, 10)
		if !reflect.DeepEqual(a.data, b.data) || !reflect.DeepEqual(sqlOf(a), sqlOf(b)) {
			t.Errorf("%s: the same seed gave different inputs", sp.name)
		}
		if reflect.DeepEqual(a.data.perm, c.data.perm) {
			t.Errorf("%s: different seeds gave the same rows", sp.name)
		}
		if sp.name != "scan-wide.n3" && reflect.DeepEqual(sqlOf(a), sqlOf(c)) {
			t.Errorf("%s: different seeds gave the same query parameters", sp.name)
		}
	}
	if _, err := generate("no-such-workload", 1, 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

// answer builds the model's answer to a range over the first visible rows.
func (d *dataset) answer(lo, hi int64, visible int) [][]any {
	var rows [][]any
	for i := 0; i < visible; i++ {
		if v := d.perm[i]; v >= lo && v < hi {
			rows = append(rows, []any{d.keys[i], int64(i % groups), v})
		}
	}
	return rows
}

func verdict(o op, rows [][]any, visible int) error {
	c := o.newCheck()
	if err := c.add(rows); err != nil {
		return err
	}
	return c.finish(visible)
}

func TestChecksAcceptTheModelAndRejectDamage(t *testing.T) {
	in, err := generate("publish-mixed.n3", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := in.data
	visible := in.seeded + 2*publishBatch // two of the four publishes are in

	filter := d.rangeOp("filter", 5000, false)
	good := d.answer(5000, 5000+rangeWidth, visible)
	if err := verdict(filter, good, visible); err != nil {
		t.Errorf("model answer rejected: %v", err)
	}
	if verdict(filter, good[1:], visible) == nil {
		t.Error("missing row accepted")
	}
	if verdict(filter, append(good[:len(good):len(good)], good[0]), visible) == nil {
		t.Error("repeated row accepted")
	}
	if verdict(filter, good, visible+publishBatch) == nil && len(d.answer(5000, 5000+rangeWidth, visible+publishBatch)) != len(good) {
		t.Error("answer of an earlier snapshot accepted for a later one")
	}
	foreign := append([][]any{{d.keys[0], int64(1), d.perm[0]}}, good[1:]...)
	if verdict(filter, foreign, visible) == nil {
		t.Error("row with a wrong grp accepted")
	}

	group := d.groupOp()
	var want [groups][2]int64
	for i := 0; i < visible; i++ {
		want[i%groups][0]++
		want[i%groups][1] += d.perm[i]
	}
	var rows [][]any
	for g, w := range want {
		rows = append(rows, []any{int64(g), w[0], w[1]})
	}
	if err := verdict(group, rows, visible); err != nil {
		t.Errorf("model group-by rejected: %v", err)
	}
	rows[3][2] = rows[3][2].(int64) + 1
	if verdict(group, rows, visible) == nil {
		t.Error("wrong SUM accepted")
	}

	seen, unseen := d.pointOp(in.seeded-1), d.pointOp(d.n-1)
	if err := verdict(seen, d.answer(d.perm[in.seeded-1], d.perm[in.seeded-1]+1, visible), visible); err != nil {
		t.Errorf("point lookup of a visible key rejected: %v", err)
	}
	if err := verdict(unseen, nil, visible); err != nil {
		t.Errorf("empty answer for a key not yet published rejected: %v", err)
	}
	if verdict(seen, nil, visible) == nil {
		t.Error("empty answer for a visible key accepted")
	}
}

func TestTopKAndJoinChecks(t *testing.T) {
	in, err := generate("query-mix.n3", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := in.data
	var top [][]any
	for v := int64(d.n - 1); v >= int64(d.n-topK); v-- {
		i := int(d.inv[v])
		top = append(top, []any{d.keys[i], int64(i % groups), v})
	}
	if err := verdict(d.topkOp(), top, d.n); err != nil {
		t.Errorf("model top-k rejected: %v", err)
	}
	top[0], top[1] = top[1], top[0]
	if verdict(d.topkOp(), top, d.n) == nil {
		t.Error("top-k in the wrong order accepted")
	}

	var joined [][]any
	for _, r := range d.answer(200, 200+rangeWidth, d.n) {
		joined = append(joined, []any{r[0], r[2], dimLabel(int(r[1].(int64)))})
	}
	if err := verdict(d.joinOp(200), joined, d.n); err != nil {
		t.Errorf("model join rejected: %v", err)
	}
	joined[0][2] = dimLabel((int(d.inv[joined[0][1].(int64)]) + 1) % groups)
	if verdict(d.joinOp(200), joined, d.n) == nil {
		t.Error("join row with another group's label accepted")
	}
}
