// Package tpch is a from-scratch, deterministic TPC-H data generator and
// query set (the dbgen substitute of paper §VI-A). It produces all eight
// tables at an arbitrary scale factor with the standard cardinality ratios
// and key relationships; value distributions are simplified but preserve
// the selectivities the studied queries (Q1, Q3, Q5, Q6, Q10) depend on.
// Dates are encoded as int64 YYYYMMDD (order-preserving), and comment
// strings are shortened.
package tpch

import (
	"fmt"
	"math/rand"
	"time"

	"orchestra/internal/tuple"
)

// Base cardinalities at scale factor 1.0 (TPC-H specification).
const (
	baseSupplier = 10_000
	baseCustomer = 150_000
	basePart     = 200_000
	basePartsupp = 800_000
	baseOrders   = 1_500_000
	linesPerOrd  = 4 // average lineitems per order (spec: 1-7, mean 4)
)

// RowCounts returns per-table row counts at a scale factor.
func RowCounts(sf float64) map[string]int {
	scale := func(base int) int {
		n := int(float64(base) * sf)
		if n < 1 {
			n = 1
		}
		return n
	}
	orders := scale(baseOrders)
	return map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": scale(baseSupplier),
		"customer": scale(baseCustomer),
		"part":     scale(basePart),
		"partsupp": scale(basePartsupp),
		"orders":   orders,
		"lineitem": orders * linesPerOrd,
	}
}

// Schemas returns the eight TPC-H table schemas. Composite-keyed tables
// (lineitem, partsupp) are keyed on their full primary key; the storage
// layer partitions by the hash of the whole key.
func Schemas() []*tuple.Schema {
	i := func(n string) tuple.Column { return tuple.Column{Name: n, Type: tuple.Int64} }
	f := func(n string) tuple.Column { return tuple.Column{Name: n, Type: tuple.Float64} }
	s := func(n string) tuple.Column { return tuple.Column{Name: n, Type: tuple.String} }
	return []*tuple.Schema{
		tuple.MustSchema("region",
			[]tuple.Column{i("r_regionkey"), s("r_name"), s("r_comment")},
			"r_regionkey"),
		tuple.MustSchema("nation",
			[]tuple.Column{i("n_nationkey"), s("n_name"), i("n_regionkey"), s("n_comment")},
			"n_nationkey"),
		tuple.MustSchema("supplier",
			[]tuple.Column{i("s_suppkey"), s("s_name"), s("s_address"), i("s_nationkey"),
				s("s_phone"), f("s_acctbal"), s("s_comment")},
			"s_suppkey"),
		tuple.MustSchema("customer",
			[]tuple.Column{i("c_custkey"), s("c_name"), s("c_address"), i("c_nationkey"),
				s("c_phone"), f("c_acctbal"), s("c_mktsegment"), s("c_comment")},
			"c_custkey"),
		tuple.MustSchema("part",
			[]tuple.Column{i("p_partkey"), s("p_name"), s("p_mfgr"), s("p_brand"),
				s("p_type"), i("p_size"), s("p_container"), f("p_retailprice"), s("p_comment")},
			"p_partkey"),
		tuple.MustSchema("partsupp",
			[]tuple.Column{i("ps_partkey"), i("ps_suppkey"), i("ps_availqty"),
				f("ps_supplycost"), s("ps_comment")},
			"ps_partkey", "ps_suppkey"),
		tuple.MustSchema("orders",
			[]tuple.Column{i("o_orderkey"), i("o_custkey"), s("o_orderstatus"),
				f("o_totalprice"), i("o_orderdate"), s("o_orderpriority"), s("o_clerk"),
				i("o_shippriority"), s("o_comment")},
			"o_orderkey"),
		tuple.MustSchema("lineitem",
			[]tuple.Column{i("l_orderkey"), i("l_linenumber"), i("l_partkey"), i("l_suppkey"),
				f("l_quantity"), f("l_extendedprice"), f("l_discount"), f("l_tax"),
				s("l_returnflag"), s("l_linestatus"), i("l_shipdate"), i("l_commitdate"),
				i("l_receiptdate"), s("l_shipinstruct"), s("l_shipmode"), s("l_comment")},
			"l_orderkey", "l_linenumber"),
	}
}

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nationNames = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
	"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
	"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

// nationRegion follows the TPC-H spec's nation→region assignment.
var nationRegion = []int64{
	0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0,
	0, 0, 1, 2, 3, 4, 2, 3, 3, 1,
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
var instructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

// dateInt converts a time to the YYYYMMDD int64 encoding.
func dateInt(t time.Time) int64 {
	return int64(t.Year())*10000 + int64(t.Month())*100 + int64(t.Day())
}

// DateInt builds the YYYYMMDD encoding from components (exported for
// writing query constants in examples and benches).
func DateInt(y, m, d int) int64 { return int64(y)*10000 + int64(m)*100 + int64(d) }

var epochStart = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

// randDate picks a date uniformly in [1992-01-01, 1998-08-02], per spec.
func randDate(rng *rand.Rand) (time.Time, int64) {
	d := epochStart.AddDate(0, 0, rng.Intn(2405))
	return d, dateInt(d)
}

func comment(rng *rand.Rand, n int) string {
	const words = "the of quickly final deposits accounts pending ironic requests express"
	b := make([]byte, 0, n)
	for len(b) < n {
		w := words[rng.Intn(len(words)-8):]
		for i := 0; i < len(w) && w[i] != ' '; i++ {
			b = append(b, w[i])
		}
		b = append(b, ' ')
	}
	return string(b[:n])
}

// Generate produces all eight tables at the scale factor, deterministically
// in seed.
func Generate(sf float64, seed int64) map[string][]tuple.Row {
	counts := RowCounts(sf)
	out := make(map[string][]tuple.Row, 8)
	rng := rand.New(rand.NewSource(seed))

	// region
	regions := make([]tuple.Row, 5)
	for i := range regions {
		regions[i] = tuple.Row{tuple.I(int64(i)), tuple.S(regionNames[i]), tuple.S(comment(rng, 12))}
	}
	out["region"] = regions

	// nation
	nations := make([]tuple.Row, 25)
	for i := range nations {
		nations[i] = tuple.Row{
			tuple.I(int64(i)), tuple.S(nationNames[i]),
			tuple.I(nationRegion[i]), tuple.S(comment(rng, 12)),
		}
	}
	out["nation"] = nations

	// supplier
	nSupp := counts["supplier"]
	suppliers := make([]tuple.Row, nSupp)
	for i := range suppliers {
		k := int64(i + 1)
		suppliers[i] = tuple.Row{
			tuple.I(k),
			tuple.S(fmt.Sprintf("Supplier#%09d", k)),
			tuple.S(comment(rng, 15)),
			tuple.I(int64(rng.Intn(25))),
			tuple.S(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+rng.Intn(25), rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))),
			tuple.F(float64(rng.Intn(1000000))/100 - 1000),
			tuple.S(comment(rng, 20)),
		}
	}
	out["supplier"] = suppliers

	// customer
	nCust := counts["customer"]
	customers := make([]tuple.Row, nCust)
	for i := range customers {
		k := int64(i + 1)
		customers[i] = tuple.Row{
			tuple.I(k),
			tuple.S(fmt.Sprintf("Customer#%09d", k)),
			tuple.S(comment(rng, 15)),
			tuple.I(int64(rng.Intn(25))),
			tuple.S(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+rng.Intn(25), rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))),
			tuple.F(float64(rng.Intn(1000000))/100 - 1000),
			tuple.S(segments[rng.Intn(len(segments))]),
			tuple.S(comment(rng, 20)),
		}
	}
	out["customer"] = customers

	// part
	nPart := counts["part"]
	parts := make([]tuple.Row, nPart)
	typeAdj := []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeMat := []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	for i := range parts {
		k := int64(i + 1)
		parts[i] = tuple.Row{
			tuple.I(k),
			tuple.S(fmt.Sprintf("part %d %s", k, typeMat[rng.Intn(5)])),
			tuple.S(fmt.Sprintf("Manufacturer#%d", 1+rng.Intn(5))),
			tuple.S(fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))),
			tuple.S(typeAdj[rng.Intn(len(typeAdj))] + " " + typeMat[rng.Intn(5)]),
			tuple.I(int64(1 + rng.Intn(50))),
			tuple.S(fmt.Sprintf("JUMBO PKG %d", rng.Intn(10))),
			tuple.F(900 + float64(k%1000)/10),
			tuple.S(comment(rng, 10)),
		}
	}
	out["part"] = parts

	// partsupp: 4 suppliers per part, following the spec's ratio.
	nPS := counts["partsupp"]
	partsupps := make([]tuple.Row, 0, nPS)
	perPart := 4
	for i := 0; len(partsupps) < nPS; i++ {
		pk := int64(i%nPart + 1)
		for j := 0; j < perPart && len(partsupps) < nPS; j++ {
			sk := int64((int(pk)+j*(nSupp/perPart+1))%nSupp + 1)
			partsupps = append(partsupps, tuple.Row{
				tuple.I(pk), tuple.I(sk),
				tuple.I(int64(1 + rng.Intn(9999))),
				tuple.F(float64(rng.Intn(100000)) / 100),
				tuple.S(comment(rng, 12)),
			})
		}
	}
	out["partsupp"] = partsupps

	// orders + lineitem
	nOrd := counts["orders"]
	orders := make([]tuple.Row, nOrd)
	lineitems := make([]tuple.Row, 0, nOrd*linesPerOrd)
	cutoff := time.Date(1998, 8, 2, 0, 0, 0, 0, time.UTC) // current date per spec
	for i := range orders {
		ok := int64(i + 1)
		custkey := int64(rng.Intn(nCust) + 1)
		odate, odateInt := randDate(rng)
		nLines := 1 + rng.Intn(2*linesPerOrd-1) // 1..7, mean 4
		var total float64
		allF, anyF := true, false
		for ln := 0; ln < nLines; ln++ {
			qty := float64(1 + rng.Intn(50))
			partkey := int64(rng.Intn(nPart) + 1)
			suppkey := int64(rng.Intn(nSupp) + 1)
			price := qty * (900 + float64(partkey%1000)/10)
			discount := float64(rng.Intn(11)) / 100 // 0.00..0.10
			tax := float64(rng.Intn(9)) / 100       // 0.00..0.08
			ship := odate.AddDate(0, 0, 1+rng.Intn(121))
			commit := odate.AddDate(0, 0, 30+rng.Intn(61))
			receipt := ship.AddDate(0, 0, 1+rng.Intn(30))
			// Return flag: R or A when the receipt is old, N otherwise.
			var rf string
			if receipt.Before(time.Date(1995, 6, 17, 0, 0, 0, 0, time.UTC)) {
				if rng.Intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			} else {
				rf = "N"
			}
			// Line status: F when shipped before the cutoff, O otherwise.
			var ls string
			if ship.Before(cutoff) {
				ls = "F"
			} else {
				ls = "O"
				anyF = true
			}
			_ = anyF
			if ls == "O" {
				allF = false
			}
			lineitems = append(lineitems, tuple.Row{
				tuple.I(ok), tuple.I(int64(ln + 1)), tuple.I(partkey), tuple.I(suppkey),
				tuple.F(qty), tuple.F(price), tuple.F(discount), tuple.F(tax),
				tuple.S(rf), tuple.S(ls),
				tuple.I(dateInt(ship)), tuple.I(dateInt(commit)), tuple.I(dateInt(receipt)),
				tuple.S(instructs[rng.Intn(len(instructs))]),
				tuple.S(shipModes[rng.Intn(len(shipModes))]),
				tuple.S(comment(rng, 10)),
			})
			total += price * (1 - discount) * (1 + tax)
		}
		status := "O"
		if allF {
			status = "F"
		}
		orders[i] = tuple.Row{
			tuple.I(ok), tuple.I(custkey), tuple.S(status),
			tuple.F(total), tuple.I(odateInt),
			tuple.S(priorities[rng.Intn(len(priorities))]),
			tuple.S(fmt.Sprintf("Clerk#%09d", rng.Intn(1000))),
			tuple.I(0),
			tuple.S(comment(rng, 15)),
		}
	}
	out["orders"] = orders
	out["lineitem"] = lineitems

	return out
}
