package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crrlab/crr/internal/core"
	"github.com/crrlab/crr/internal/dataset"
	"github.com/crrlab/crr/internal/wire"
	"github.com/crrlab/crr/pkg/client"
)

// Tenants of the fleet: a static BirdMap artifact whose answers are
// checked bit for bit, and an Electricity artifact the stream refreshes.
const (
	tenantStatic = "birds"
	tenantStream = "power"
)

const (
	batchRows      = 1000
	smallMaxRows   = 16
	smallPerTenant = 256
	requestTimeout = 2 * time.Second
)

// smallPayload is one interactive request. want is nil for the streamed
// tenant, whose answers change with every swap.
type smallPayload struct {
	batch   *client.Batch
	rows    int
	want    []float64
	wantCov []bool
}

// batchPayload is one 1k-row request of the static tenant with its
// in-process answers.
type batchPayload struct {
	batch     *client.Batch
	wire      *wire.Batch
	cols      *dataset.ColumnSet
	wantPred  []float64
	wantCov   []bool
	wantCheck []client.Violation
}

// rig drives the fleet through the public SDK.
type rig struct {
	tr      *tracer
	hc      *http.Client
	small   [2]*client.Client // JSON, one per tenant (static, stream)
	batch   *client.Client    // binary, static tenant
	smalls  [2][]smallPayload
	batches []batchPayload
	static  *core.RuleSet // the static tenant's rules as the nodes decoded them

	checks, checkFails atomic.Int64
	// Counts for the replays: requests per tenant and uses per batch.
	tenantReqs [2]atomic.Int64
	batchUses  []atomic.Int64

	mu        sync.Mutex
	checkErrs []string
}

func newRig(f *fleet, maxConns int, static *core.RuleSet, staticRows, streamRows *dataset.Relation) (*rig, error) {
	hc := &http.Client{Transport: stampTransport{base: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns,
	}}}
	r := &rig{hc: hc, static: static}
	for i, tenant := range []string{tenantStatic, tenantStream} {
		r.small[i] = client.New(f.router.url, client.WithHTTPClient(hc), client.WithFormat(client.FormatJSON), client.WithTenant(tenant))
	}
	r.batch = client.New(f.router.url, client.WithHTTPClient(hc), client.WithFormat(client.FormatBinary), client.WithTenant(tenantStatic))

	// Batches take the first rows of the static tenant's request rows,
	// small requests cycle through the rest.
	nb := staticRows.Len()/batchRows - 1
	if nb < 1 || streamRows.Len() < smallMaxRows {
		return nil, fmt.Errorf("too few request rows")
	}
	for b := 0; b < nb; b++ {
		p, err := newBatchPayload(static, slice(staticRows, b*batchRows, (b+1)*batchRows))
		if err != nil {
			return nil, err
		}
		r.batches = append(r.batches, p)
	}
	r.batchUses = make([]atomic.Int64, nb)
	spare := slice(staticRows, nb*batchRows, staticRows.Len())
	for i, rows := range []*dataset.Relation{spare, streamRows} {
		var ref *core.RuleSet
		if i == 0 {
			ref = static
		}
		for k := 0; k < smallPerTenant; k++ {
			n := 1 + k%smallMaxRows
			lo := (k * 37) % (rows.Len() - n)
			r.smalls[i] = append(r.smalls[i], newSmallPayload(ref, slice(rows, lo, lo+n)))
		}
	}
	return r, nil
}

func (r *rig) close() { r.hc.CloseIdleConnections() }

func slice(rel *dataset.Relation, lo, hi int) *dataset.Relation {
	return &dataset.Relation{Schema: rel.Schema, Tuples: rel.Tuples[lo:hi]}
}

// columns returns every column of rel in both request forms: the SDK batch
// and the wire batch the SDK would encode.
func columns(rel *dataset.Relation) (*client.Batch, *wire.Batch) {
	cb := client.NewBatch()
	wb := &wire.Batch{Rows: rel.Len()}
	for a := 0; a < rel.Schema.Len(); a++ {
		attr := rel.Schema.Attr(a)
		nulls := make([]bool, rel.Len())
		var bitmap []uint64
		for i, t := range rel.Tuples {
			if t[a].Null {
				nulls[i] = true
				if bitmap == nil {
					bitmap = make([]uint64, (rel.Len()+63)/64)
				}
				bitmap[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		wb.Schema.Names = append(wb.Schema.Names, attr.Name)
		if attr.Kind == dataset.Numeric {
			vals := make([]float64, rel.Len())
			for i, t := range rel.Tuples {
				vals[i] = t[a].Num
			}
			cb.Float64(attr.Name, vals, nulls)
			wb.Schema.Kinds = append(wb.Schema.Kinds, wire.Float64)
			wb.Cols = append(wb.Cols, wire.Col{Floats: vals, Nulls: bitmap})
			continue
		}
		vals := make([]string, rel.Len())
		codes := make([]uint32, rel.Len())
		var dict []string
		index := map[string]uint32{}
		for i, t := range rel.Tuples {
			vals[i] = t[a].Str
			if t[a].Null {
				codes[i] = wire.NullCode
				continue
			}
			c, ok := index[t[a].Str]
			if !ok {
				c = uint32(len(dict))
				index[t[a].Str] = c
				dict = append(dict, t[a].Str)
			}
			codes[i] = c
		}
		cb.String(attr.Name, vals, nulls)
		wb.Schema.Kinds = append(wb.Schema.Kinds, wire.String)
		wb.Cols = append(wb.Cols, wire.Col{Codes: codes, Dict: dict, Nulls: bitmap})
	}
	return cb, wb
}

func newSmallPayload(ref *core.RuleSet, rows *dataset.Relation) smallPayload {
	cb, _ := columns(rows)
	p := smallPayload{batch: cb, rows: rows.Len()}
	if ref != nil {
		p.want, p.wantCov = ref.PredictView(dataset.NewColumnSet(rows).View())
	}
	return p
}

// newBatchPayload computes the in-process answers the same way the node's
// handlers do: PredictView, and ViolationsColumns with the first covering
// rule's prediction as the repair.
func newBatchPayload(ref *core.RuleSet, rows *dataset.Relation) (batchPayload, error) {
	cb, wb := columns(rows)
	if err := cb.Err(); err != nil {
		return batchPayload{}, err
	}
	p := batchPayload{batch: cb, wire: wb, cols: dataset.NewColumnSet(rows)}
	p.wantPred, p.wantCov = ref.PredictView(p.cols.View())
	for _, v := range core.ViolationsColumns(p.cols, ref) {
		cv := client.Violation{Tuple: v.TupleIndex, Rule: v.RuleIndex, Observed: v.Observed, Predicted: v.Predicted, Excess: v.Excess}
		if val, ok := core.Repair(p.cols.MaterializeRow(v.TupleIndex), ref); ok {
			cv.Repair = &val
		}
		p.wantCheck = append(p.wantCheck, cv)
	}
	return p, nil
}

var errMismatch = errors.New("response differs from the in-process answer")

// send is the rig's sendFunc. Every second request is traced when a
// tracer is set, so traced and untraced requests share one load and their
// latency difference is the tracing overhead.
func (r *rig) send(ctx context.Context, o op) (bool, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	name := "client.small"
	if o.class == classBatch {
		name = "client.batch"
	}
	traced := r.tr != nil && o.seq%2 == 0
	var sp open
	if traced {
		req := r.tr.newReq()
		sp = r.tr.begin(name, req, 0)
		ctx = withTrace(ctx, req, sp.s.ID)
	}
	var err error
	if o.class == classSmall {
		err = r.sendSmall(ctx, o.pick)
	} else {
		err = r.sendBatch(ctx, o.pick)
	}
	sp.end()
	return traced, err
}

func (r *rig) sendSmall(ctx context.Context, pick int) error {
	tenant := pick % 2
	p := r.smalls[tenant][(pick/2)%len(r.smalls[tenant])]
	r.tenantReqs[tenant].Add(1)
	res, err := r.small[tenant].Predict(ctx, p.batch)
	if err != nil {
		return err
	}
	ok := len(res.Values) == p.rows && len(res.Covered) == p.rows
	if ok && p.want != nil {
		ok = sameFloats(res.Values, p.want) && sameBools(res.Covered, p.wantCov)
	}
	return r.checked(ok, "small predict")
}

func (r *rig) sendBatch(ctx context.Context, pick int) error {
	i := pick % len(r.batches)
	p := &r.batches[i]
	r.tenantReqs[0].Add(1)
	r.batchUses[i].Add(1)
	if (pick/len(r.batches))%2 == 0 {
		res, err := r.batch.Predict(ctx, p.batch)
		if err != nil {
			return err
		}
		return r.checked(sameFloats(res.Values, p.wantPred) && sameBools(res.Covered, p.wantCov), "batch predict")
	}
	rep, err := r.batch.Check(ctx, p.batch)
	if err != nil {
		return err
	}
	return r.checked(rep.Checked == batchRows && sameViolations(rep.Violations, p.wantCheck), "batch check")
}

func (r *rig) checked(ok bool, what string) error {
	r.checks.Add(1)
	if ok {
		return nil
	}
	r.checkFails.Add(1)
	r.mu.Lock()
	if len(r.checkErrs) < 8 {
		r.checkErrs = append(r.checkErrs, what)
	}
	r.mu.Unlock()
	return fmt.Errorf("%s: %w", what, errMismatch)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameViolations(a, b []client.Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Tuple != y.Tuple || x.Rule != y.Rule || (x.Repair == nil) != (y.Repair == nil) ||
			!sameFloats([]float64{x.Observed, x.Predicted, x.Excess}, []float64{y.Observed, y.Predicted, y.Excess}) {
			return false
		}
		if x.Repair != nil && math.Float64bits(*x.Repair) != math.Float64bits(*y.Repair) {
			return false
		}
	}
	return true
}
