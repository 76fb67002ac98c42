package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/storage"
	"repro/internal/tpch"
)

// This file is the benchmark's own answer key. Every family variant is
// computed with plain loops over the generated columns, from the families'
// documented semantics, without relop, engine or the tpch reference
// executors, so a bug shared by the engine and its in-tree references still
// shows. The date windows are derived with the time package for the same
// reason.

// result is one query answer in a comparable form: rows keyed by their
// group-column values, each row holding its aggregate columns by name.
type result struct {
	keyCols []string
	valCols []string
	exact   []bool // per valCol: integer-typed, compared exactly
	rows    map[string][]float64
}

func newResult(keyCols, valCols []string, exact []bool) *result {
	return &result{keyCols: keyCols, valCols: valCols, exact: exact, rows: map[string][]float64{}}
}

// row returns the value slice of key, creating it zeroed.
func (r *result) row(key string) []float64 {
	v, ok := r.rows[key]
	if !ok {
		v = make([]float64, len(r.valCols))
		r.rows[key] = v
	}
	return v
}

// floatTol is the relative tolerance on float aggregates: the engine sums in
// page and partial-aggregate order, the reference in row order.
const floatTol = 1e-9

// diff reports the first difference between want (r) and got, or "".
func (r *result) diff(got *result) string {
	if len(got.rows) != len(r.rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.rows), len(r.rows))
	}
	for _, k := range r.sortedKeys() {
		g, ok := got.rows[k]
		if !ok {
			return fmt.Sprintf("missing group %q", k)
		}
		for i, w := range r.rows[k] {
			if !near(w, g[i], r.exact[i]) {
				return fmt.Sprintf("group %q %s = %v, want %v", k, r.valCols[i], g[i], w)
			}
		}
	}
	return ""
}

func near(want, got float64, exact bool) bool {
	if exact {
		return want == got
	}
	return math.Abs(want-got) <= floatTol*math.Max(math.Abs(want), math.Abs(got))
}

func (r *result) sortedKeys() []string {
	keys := make([]string, 0, len(r.rows))
	for k := range r.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fromBatch converts an engine result into the shape of want: every key and
// value column must be present with the expected type class.
func fromBatch(want *result, b *storage.Batch) (*result, error) {
	got := newResult(want.keyCols, want.valCols, want.exact)
	n := b.Len()
	keys := make([]storage.Vector, len(want.keyCols))
	for i, c := range want.keyCols {
		v, err := b.Col(c)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	vals := make([]storage.Vector, len(want.valCols))
	for i, c := range want.valCols {
		v, err := b.Col(c)
		if err != nil {
			return nil, err
		}
		if (v.Type == storage.Int64) != want.exact[i] || v.Type == storage.String {
			return nil, fmt.Errorf("column %s has type %v", c, v.Type)
		}
		vals[i] = v
	}
	parts := make([]string, len(keys))
	for r := 0; r < n; r++ {
		for i, v := range keys {
			switch v.Type {
			case storage.String:
				parts[i] = v.Str[r]
			case storage.Float64:
				parts[i] = strconv.FormatFloat(v.F64[r], 'g', -1, 64)
			default:
				parts[i] = strconv.FormatInt(v.I64[r], 10)
			}
		}
		key := strings.Join(parts, "|")
		if _, dup := got.rows[key]; dup {
			return nil, fmt.Errorf("duplicate group %q", key)
		}
		row := got.row(key)
		for i, v := range vals {
			if v.Type == storage.Int64 {
				row[i] = float64(v.I64[r])
			} else {
				row[i] = v.F64[r]
			}
		}
	}
	return got, nil
}

// query names one of the 12 family variants the benchmark rotates through.
type query struct {
	family  string
	variant int
}

func (q query) String() string { return fmt.Sprintf("%s/v%d", q.family, q.variant) }

// rotation is the fixed order every workload cycles: family-major within a
// variant, the order cordobad's own open-loop client uses.
var rotation = func() []query {
	var qs []query
	for v := 0; v < 3; v++ {
		for _, f := range []string{"Q1", "Q6", "Q4", "Q13"} {
			qs = append(qs, query{f, v})
		}
	}
	return qs
}()

// references holds the answer of every rotation entry.
type references map[query]*result

func day(y int, m time.Month, d int) int64 {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

// computeReferences evaluates all 12 variants over db and asserts the
// roll-up identities: each family's variant 0 equals its variants 1 and 2
// merged.
func computeReferences(db *tpch.DB) (references, error) {
	refs := references{}
	for v := 0; v < 3; v++ {
		refs[query{"Q1", v}] = refQ1(db, v)
		refs[query{"Q6", v}] = refQ6(db, v)
		refs[query{"Q4", v}] = refQ4(db, v)
		refs[query{"Q13", v}] = refQ13(db, v)
	}
	if err := checkRollups(refs); err != nil {
		return nil, err
	}
	for q, r := range refs {
		if len(r.rows) == 0 {
			return nil, fmt.Errorf("reference %s is empty", q)
		}
	}
	return refs, nil
}

var q1Vals = []string{"sum_qty", "sum_base_price", "sum_disc_price", "sum_charge",
	"avg_qty", "avg_price", "avg_disc", "count_order"}

// refQ1 is the pricing summary over l_shipdate <= 1998-09-02, grouped by
// (returnflag, linestatus) for variant 0, returnflag for 1, linestatus for 2.
func refQ1(db *tpch.DB, variant int) *result {
	keyCols := [][]string{{"l_returnflag", "l_linestatus"}, {"l_returnflag"}, {"l_linestatus"}}[variant]
	exact := []bool{false, false, false, false, false, false, false, true}
	res := newResult(keyCols, q1Vals, exact)
	li := db.Lineitem
	ship := li.MustCol("l_shipdate").I64
	flag, status := li.MustCol("l_returnflag").Str, li.MustCol("l_linestatus").Str
	qty := li.MustCol("l_quantity").I64
	price, disc, tax := li.MustCol("l_extendedprice").F64, li.MustCol("l_discount").F64, li.MustCol("l_tax").F64
	cutoff := day(1998, 12, 1) - 90
	sumDisc := map[string]float64{}
	for i := range ship {
		if ship[i] > cutoff {
			continue
		}
		var key string
		switch variant {
		case 0:
			key = flag[i] + "|" + status[i]
		case 1:
			key = flag[i]
		default:
			key = status[i]
		}
		r := res.row(key)
		dp := price[i] * (1 - disc[i])
		r[0] += float64(qty[i])
		r[1] += price[i]
		r[2] += dp
		r[3] += dp * (1 + tax[i])
		r[7]++
		sumDisc[key] += disc[i]
	}
	for k, r := range res.rows {
		r[4], r[5], r[6] = r[0]/r[7], r[1]/r[7], sumDisc[k]/r[7]
	}
	return res
}

// refQ6 is the forecasting revenue over the variant's shipdate window: the
// 1994 year for variant 0, its first half for 1, its second half for 2.
func refQ6(db *tpch.DB, variant int) *result {
	lo, hi := day(1994, 1, 1), day(1995, 1, 1)
	switch variant {
	case 1:
		hi = day(1994, 7, 1)
	case 2:
		lo = day(1994, 7, 1)
	}
	res := newResult(nil, []string{"revenue"}, []bool{false})
	li := db.Lineitem
	ship, qty := li.MustCol("l_shipdate").I64, li.MustCol("l_quantity").I64
	price, disc := li.MustCol("l_extendedprice").F64, li.MustCol("l_discount").F64
	r := res.row("")
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
			r[0] += price[i] * disc[i]
		}
	}
	return res
}

// refQ4 counts, per priority, the orders in the variant's orderdate window
// (1993 Q3 for variant 0, split at 1993-08-15 for 1 and 2) having a lineitem
// committed before it was received.
func refQ4(db *tpch.DB, variant int) *result {
	lo, hi := day(1993, 7, 1), day(1993, 10, 1)
	switch variant {
	case 1:
		hi = day(1993, 8, 15)
	case 2:
		lo = day(1993, 8, 15)
	}
	late := map[int64]bool{}
	li := db.Lineitem
	lkey, commit, receipt := li.MustCol("l_orderkey").I64, li.MustCol("l_commitdate").I64, li.MustCol("l_receiptdate").I64
	for i := range lkey {
		if commit[i] < receipt[i] {
			late[lkey[i]] = true
		}
	}
	res := newResult([]string{"o_orderpriority"}, []string{"order_count"}, []bool{true})
	o := db.Orders
	okey, date, prio := o.MustCol("o_orderkey").I64, o.MustCol("o_orderdate").I64, o.MustCol("o_orderpriority").Str
	for i := range okey {
		if date[i] >= lo && date[i] < hi && late[okey[i]] {
			res.row(prio[i])[0]++
		}
	}
	return res
}

// refQ13 is the distribution of customers by their count of orders whose
// comment does not contain "special" followed by "requests", over all
// customers (variant 0) or the lower/upper half of the custkey range.
func refQ13(db *tpch.DB, variant int) *result {
	n := int64(db.Customer.NumRows())
	lo, hi := int64(1), n+1
	switch variant {
	case 1:
		hi = n/2 + 1
	case 2:
		lo = n/2 + 1
	}
	perCust := map[int64]int{}
	o := db.Orders
	cust, comment := o.MustCol("o_custkey").I64, o.MustCol("o_comment").Str
	for i := range cust {
		if !specialRequests(comment[i]) {
			perCust[cust[i]]++
		}
	}
	res := newResult([]string{"c_count"}, []string{"custdist"}, []bool{true})
	for _, c := range db.Customer.MustCol("c_custkey").I64 {
		if c >= lo && c < hi {
			res.row(strconv.Itoa(perCust[c]))[0]++
		}
	}
	return res
}

func specialRequests(s string) bool {
	i := strings.Index(s, "special")
	return i >= 0 && strings.Contains(s[i+len("special"):], "requests")
}

// checkRollups asserts variant 0 = variants 1 and 2 merged, per family. Q1
// re-aggregates its (flag, status) groups to each single-column grouping;
// the other families are additive over their disjoint halves.
func checkRollups(refs references) error {
	for _, f := range []string{"Q6", "Q4", "Q13"} {
		merged := newResult(refs[query{f, 0}].keyCols, refs[query{f, 0}].valCols, refs[query{f, 0}].exact)
		for v := 1; v <= 2; v++ {
			for k, vals := range refs[query{f, v}].rows {
				m := merged.row(k)
				for i, x := range vals {
					m[i] += x
				}
			}
		}
		if d := refs[query{f, 0}].diff(merged); d != "" {
			return fmt.Errorf("roll-up identity %s v0 = v1+v2: %s", f, d)
		}
	}
	full := refs[query{"Q1", 0}]
	for v, part := range []int{0, 1} {
		want := refs[query{"Q1", v + 1}]
		got := newResult(want.keyCols, want.valCols, want.exact)
		for k, r := range full.rows {
			g := got.row(strings.Split(k, "|")[part])
			for i := 0; i < 4; i++ {
				g[i] += r[i]
			}
			g[6] += r[6] * r[7] // avg_disc × count = the group's discount sum
			g[7] += r[7]
		}
		for _, g := range got.rows {
			g[4], g[5], g[6] = g[0]/g[7], g[1]/g[7], g[6]/g[7]
		}
		if d := want.diff(got); d != "" {
			return fmt.Errorf("roll-up identity Q1 v0 -> v%d: %s", v+1, d)
		}
	}
	return nil
}
