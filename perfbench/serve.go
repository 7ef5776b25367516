package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dishrpc"
	"repro/internal/features"
	"repro/internal/pipeline"
	"repro/internal/predict"
)

// runServe drives predictd the way a campaign worker does: a
// synchronous-refit predict.Service behind its dishrpc server on
// loopback, one client connection, and for every revealed slot one
// topk call followed by one observe call, each waiting for its reply.
// The records are the oracle stream of the four study terminals,
// generated during set-up together with a warm-up that fits the first
// model, so no topk call meets an empty service.
func runServe(seed int64, sz sizes, workers int, tr *tracer) (*rep, error) {
	t0 := time.Now()
	w, err := buildWorld(studyTerminals(), seed, workers, tr)
	if err != nil {
		return nil, err
	}
	collect := &pipeline.Collect{}
	sinks := []pipeline.Sink{pipeline.Where(pipeline.ChosenOnly(), collect)}
	cfg := w.campaign(sz.serveSlots, true, workers)
	if tr == nil {
		p := &pipeline.Pipeline{Source: &pipeline.Campaign{Config: cfg}, Sinks: sinks}
		if err := p.Run(context.Background()); err != nil {
			return nil, fmt.Errorf("serve records: %w", err)
		}
	} else if _, err := replayCampaign(w, cfg, sinks, tr); err != nil {
		return nil, fmt.Errorf("serve records replay: %w", err)
	}
	recs := collect.Records

	id := tr.begin("predict.setup")
	svc, err := predict.NewService(predict.Config{Synchronous: true, Workers: workers, Seed: seed})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	h := &serveHandler{svc: svc, tr: tr}
	warm := 0
	for ; warm < len(recs); warm++ {
		if _, v := svc.Model(); v > 0 {
			break
		}
		id := tr.begin("predict.observe")
		up, err := svc.ObserveRecord(&recs[warm])
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("serve warm-up: %w", err)
		}
		h.noteRefit(id, up.Refits)
	}
	if warm == len(recs) {
		return nil, fmt.Errorf("serve: no model after all %d records", len(recs))
	}

	id = tr.begin("predict.setup")
	var srv *dishrpc.Server
	if tr == nil {
		srv, err = predict.NewServer("127.0.0.1:0", svc)
	} else {
		srv, err = dishrpc.NewHandlerServer("127.0.0.1:0", h.handle)
	}
	if err != nil {
		tr.end(id)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	defer func() {
		cancel()
		<-served
	}()
	client, err := predict.Dial(srv.Addr().String())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	r := &rep{setup: time.Since(t0)}

	t1 := time.Now()
	dg := newDigest()
	scored := make([]int, 0, len(recs))
	hits := 0
	for i := warm; i < len(recs); i++ {
		rec := &recs[i]
		sats := satParams(rec.Available)
		r.attempted += 2

		id := tr.begin("dishrpc.call")
		tq := time.Now()
		top, err := client.TopK(rec.LocalHour, sats, 0)
		rtt := time.Since(tq)
		tr.end(id)
		if err != nil {
			r.failed++
			dg.flag(false)
			dg.flush()
			continue
		}
		r.rtts = append(r.rtts, rtt)

		id = tr.begin("dishrpc.call")
		obs, err := client.Observe(predict.ObserveRequest{
			Terminal: rec.Terminal, LocalHour: rec.LocalHour, Sats: sats, ChosenIdx: rec.ChosenIdx,
		})
		tr.end(id)
		if err != nil {
			r.failed++
			dg.flag(false)
			dg.flush()
			continue
		}
		dg.flag(true)
		for i, c := range top.Clusters {
			dg.i64(int64(c))
			dg.f64(top.Probs[i])
		}
		dg.i64(top.ModelVersion)
		dg.flag(obs.Scored)
		dg.i64(int64(obs.Rank))
		dg.i64(int64(obs.Refits))
		dg.i64(obs.ModelVersion)
		dg.flush()
		if obs.Scored {
			scored = append(scored, i)
			if obs.Rank <= 5 {
				hits++
			}
		}
	}
	r.timed = time.Since(t1)
	r.records = len(recs) - warm
	r.digest = dg.sum()
	tr.count("dishrpc.calls", float64(r.attempted))

	stats := svc.Stats()
	tr.count("predict.refits", float64(stats.Refits))
	base, err := baselineTop5(recs, scored)
	if err != nil {
		return nil, err
	}
	r.values = map[string]float64{
		"online_top5":   frac(hits, len(scored)),
		"baseline_top5": base,
		"failed_frac":   frac(r.failed, r.attempted),
	}
	r.keep = []any{w, svc, recs}
	return r, nil
}

// serveHandler wraps Service.Handle with a span per call. An observe
// that published a new model is relabelled predict.refit, so refit time
// is told apart from plain observes.
type serveHandler struct {
	svc    *predict.Service
	tr     *tracer
	refits int
}

func (h *serveHandler) handle(method string, params json.RawMessage) (any, error) {
	id := h.tr.begin("predict." + method)
	res, err := h.svc.Handle(method, params)
	h.tr.end(id)
	if o, ok := res.(predict.ObserveResult); ok {
		h.noteRefit(id, o.Refits)
	}
	return res, err
}

func (h *serveHandler) noteRefit(id int32, refits int) {
	if refits == h.refits {
		return
	}
	h.tr.rename(id, "predict.refit")
	h.tr.count("ml.fits", float64(refits-h.refits))
	h.tr.count("ml.rows", float64(h.svc.Stats().WindowRows))
	h.refits = refits
}

// satParams converts an available set to the wire form.
func satParams(avail []core.SatObs) []predict.SatParam {
	out := make([]predict.SatParam, len(avail))
	for i, a := range avail {
		out[i] = predict.SatParam{AzimuthDeg: a.AzimuthDeg, ElevationDeg: a.ElevationDeg, AgeYears: a.AgeYears, Sunlit: a.Sunlit}
	}
	return out
}

// baselineTop5 is the most-populated-cluster baseline's top-5 hit rate
// over the scored records: the bar the online model must clear.
func baselineTop5(recs []core.SlotRecord, scored []int) (float64, error) {
	var slot features.Slot
	vec := make([]float64, features.VectorLen)
	hits := 0
	for _, i := range scored {
		rec := &recs[i]
		sats := make([]features.Sat, len(rec.Available))
		for j, a := range rec.Available {
			sats[j] = features.Sat{AzimuthDeg: a.AzimuthDeg, ElevationDeg: a.ElevationDeg, AgeYears: a.AgeYears, Sunlit: a.Sunlit}
		}
		if err := features.ClusterInto(&slot, sats); err != nil {
			return 0, err
		}
		key, err := slot.KeyOf(rec.ChosenIdx)
		if err != nil {
			return 0, err
		}
		if err := slot.VectorInto(rec.LocalHour, vec); err != nil {
			return 0, err
		}
		rank, err := features.BaselineRanking(vec)
		if err != nil {
			return 0, err
		}
		for _, c := range rank[:5] {
			if c == key.Index() {
				hits++
				break
			}
		}
	}
	return frac(hits, len(scored)), nil
}

// checkServe holds the online model to beating the baseline.
func checkServe(r *rep) []string {
	if m, b := r.values["online_top5"], r.values["baseline_top5"]; m <= b {
		return []string{fmt.Sprintf("online_top5 %.4f not above baseline %.4f", m, b)}
	}
	return nil
}
