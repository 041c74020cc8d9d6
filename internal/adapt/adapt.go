// Package adapt closes the loop the batch pipeline leaves open: a design
// is solved for the workload observed *yesterday*, deployed into traffic
// that keeps moving, and is stale by the time the migration finishes. The
// controller here couples the online workload monitor (internal/workload)
// to the existing solve/deploy data plane:
//
//	observe → detect drift → incremental redesign → schedule migration
//	       → deploy step by step → replan mid-migration from measured rates
//
// Observation: every executed query is fed to the monitor (templating +
// EWMA rates) and charged its *measured* simulated seconds on the
// currently deployed physical state; the simulated clock advances by the
// same amount, so cumulative workload-seconds and deployment windows live
// on one timeline, exactly like internal/deploy's objective.
//
// Redesign: on drift the controller snapshots the decayed template
// workload and runs the full CORADD pipeline over it, warm-starting every
// exact solve from the incumbent design's objects (ilp.SolveOptions.
// WarmStart via feedback.Config.Warm) — unchanged regions of the search
// are pruned immediately, so a redesign never explores more solver nodes
// than a cold design of the same instance.
//
// Migration: designer.PlanMigration schedules the builds; while a build
// runs, queries execute at the current prefix state's measured rate.
// After every completed build the controller re-measures the deployed
// prefix (the MigrationPrefix evaluation) and, when the measured workload
// rate diverges from the rate the schedule assumed beyond a tolerance —
// the mix kept drifting while the migration ran — re-solves the
// *remaining* scheduling problem under the current snapshot.
//
// Everything is deterministic: the monitor's clock is the simulated
// clock, measurement is the deterministic simulated substrate, and the
// solvers are the deterministic exact searches — one stream replays to
// one trace.
package adapt

import (
	"fmt"
	"sort"
	"time"

	"coradd/internal/candgen"
	"coradd/internal/costmodel"
	"coradd/internal/deploy"
	"coradd/internal/designer"
	"coradd/internal/exec"
	"coradd/internal/fault"
	"coradd/internal/feedback"
	"coradd/internal/obs"
	"coradd/internal/query"
	"coradd/internal/stats"
	"coradd/internal/workload"
)

// Config tunes a Controller.
type Config struct {
	// Budget is the space budget every redesign solves for, in bytes.
	Budget int64
	// Cand configures candidate generation for redesigns.
	Cand candgen.Config
	// FB configures the redesign's ILP feedback loop.
	FB feedback.Config
	// Deploy tunes the migration scheduler.
	Deploy deploy.Options
	// Monitor tunes the workload monitor (half-life, drift thresholds).
	Monitor workload.Config
	// CheckEvery is the drift-check cadence in observations. Default 16.
	CheckEvery int
	// MinGap is the minimum simulated seconds between redesigns, so a
	// thrashing mix cannot trigger back-to-back solver runs. Default 0.
	MinGap float64
	// ReplanTolerance is the relative divergence between the measured
	// workload rate of a deployed migration prefix and the rate the
	// schedule assumed before the remaining schedule is re-solved
	// (|measured/modeled − 1| > tol). Negative disables replanning.
	// Default 0.25.
	ReplanTolerance float64
	// Cache supplies a shared materialization cache; nil builds a private
	// one. Sharing with other evaluators over the same fact relation lets
	// identical physical structures be built once.
	Cache *designer.ObjectCache
	// Faults injects build failures, delays, solve cutoffs and crashes
	// (internal/fault). nil disables the layer entirely: the controller
	// takes the exact code paths it took before the layer existed, so
	// fault-free runs are byte-identical.
	Faults *fault.Injector
	// Retry bounds how build failures are retried (capped exponential
	// backoff with deterministic jitter). Zero fields take fault.RetryPolicy
	// defaults. A build failing more than Retry.Retries times is skipped
	// and the remaining schedule re-solved.
	Retry fault.RetryPolicy
	// SolveTimeLimit deadlines every redesign's selection solves. On expiry
	// the solve returns its best warm-started incumbent unproven; the
	// controller adopts it anyway (degradation, not failure — warm starts
	// guarantee it is never worse than the deployed design).
	SolveTimeLimit time.Duration
	// Metrics, when non-nil, exports the controller's counters, gauges
	// and histograms into the registry under the coradd_adapt_ prefix
	// (internal/obs). nil is free: the handles are nil and every update
	// is an atomic no-op, so uninstrumented runs take identical paths.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one structured event per controller
	// trace entry plus one per selection/scheduling solve, stamped with
	// the simulated clock — never wall time, so a deterministic stream
	// replays to a byte-identical event sequence.
	Trace *obs.Tracer
}

func (c *Config) fill() {
	if c.CheckEvery <= 0 {
		c.CheckEvery = 16
	}
	if c.ReplanTolerance == 0 {
		c.ReplanTolerance = 0.25
	}
	c.Retry = c.Retry.Fill()
}

// EventKind classifies trace events.
type EventKind int

const (
	// EventRedesign is a drift-triggered redesign (including no-change
	// outcomes, see the detail).
	EventRedesign EventKind = iota
	// EventBuild is one completed migration build.
	EventBuild
	// EventReplan is a mid-migration re-solve of the remaining schedule.
	EventReplan
	// EventMigrationDone marks a fully deployed target design.
	EventMigrationDone
	// EventBuildFailed is one injected build failure, scheduled for retry
	// after backoff.
	EventBuildFailed
	// EventBuildSkipped is a build abandoned after exhausting its retries;
	// the remaining schedule is re-solved without it.
	EventBuildSkipped
	// EventSolveDegraded is a redesign whose solve hit its deadline: the
	// unproven warm-started incumbent was adopted.
	EventSolveDegraded
	// EventResume is a controller rebuilt from a migration journal.
	EventResume
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventRedesign:
		return "redesign"
	case EventBuild:
		return "build"
	case EventReplan:
		return "replan"
	case EventMigrationDone:
		return "migrated"
	case EventBuildFailed:
		return "build-failed"
	case EventBuildSkipped:
		return "build-skipped"
	case EventSolveDegraded:
		return "solve-degraded"
	case EventResume:
		return "resume"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one trace entry.
type Event struct {
	Kind EventKind
	// Clock is the simulated time of the event; Observed the observation
	// count when it fired.
	Clock    float64
	Observed int
	// Detail is a human-readable summary.
	Detail string
}

// RedesignInfo records one drift-triggered redesign for telemetry and for
// the warm-vs-cold solver comparison of the adapt ablation.
type RedesignInfo struct {
	// Clock is when the redesign ran; Drift the report that triggered it.
	Clock float64
	Drift workload.DriftReport
	// Snapshot is the decayed template workload the redesign solved for.
	Snapshot query.Workload
	// Solve is the final (warm-started) selection instance and solution.
	Solve *feedback.Result
	// Design is the redesigned target; Nodes its total solver nodes.
	Design *designer.Design
	Nodes  int
	// Changed reports whether the redesign differed from the incumbent
	// (an unchanged redesign only rebases the drift baseline).
	Changed bool
	// Proven reports whether every selection solve proved optimality;
	// false means the solve hit its deadline (Config.SolveTimeLimit or an
	// injected node cap) and the warm incumbent was adopted unproven.
	Proven bool
}

// Report is the controller's cumulative telemetry.
type Report struct {
	// Observed is the number of processed queries; Clock the simulated
	// time; Cum the cumulative workload-seconds (identical to Clock
	// advanced by query execution, the adaptive analogue of deploy's
	// Σ build·rate objective).
	Observed int
	Clock    float64
	Cum      float64
	// Events is the trace; Redesigns/Replans/BuildsDone the counters.
	Events     []Event
	Redesigns  int
	Replans    int
	BuildsDone int
	// Retries counts injected build failures that were retried;
	// SkippedBuilds builds abandoned after retry exhaustion; Degraded
	// redesigns adopted unproven after a solve deadline.
	Retries       int
	SkippedBuilds int
	Degraded      int
	// RedesignLog records every redesign, in order.
	RedesignLog []*RedesignInfo
}

// migration is an in-flight deployment.
type migration struct {
	plan *designer.MigrationPlan
	// order is the remaining build order (indexes into plan.Builds);
	// builds/rates its per-step modeled build seconds and workload rates,
	// aligned with order; wTotal the total query weight of the workload
	// those rates were computed over (for scale-free comparison against
	// measured rates).
	order  []int
	builds []float64
	rates  []float64
	wTotal float64
	// done are the deployed builds; skipped builds abandoned after retry
	// exhaustion; nextDone the simulated completion time of order[0]'s
	// current attempt.
	done     []int
	skipped  []int
	nextDone float64
	// pending is the injected fate of order[0]'s current attempt, drawn
	// when the attempt was scheduled; attempts counts failed attempts per
	// object name.
	pending  fault.Outcome
	attempts map[string]int
}

// Controller drives the adaptive loop over a stream of executed queries.
// Not safe for concurrent use: the stream is a single timeline.
type Controller struct {
	cfg    Config
	common designer.Common // W is replaced by each snapshot
	model  *costmodel.Aware
	cache  *designer.ObjectCache

	// Mon is the workload monitor, exported for inspection; its clock is
	// the controller's simulated clock.
	Mon *workload.Monitor

	clock     float64
	incumbent *designer.Design // current target design
	deployed  *designer.Design // what physically serves right now
	mig       *migration
	journal   *deploy.Journal    // step record of the latest migration
	rates     map[string]float64 // template key → measured seconds on deployed
	lbCache   map[string]float64 // template key → lower-bound estimate

	// attr holds the current deployment's per-template attribution traces,
	// written by priceTemplate alongside rates (a rates hit implies the
	// attr entry was written for the same deployment, so attr needs no
	// reset: every post-reset hit is preceded by a miss that overwrote it).
	// calib accumulates the per-(template, object) serve record across the
	// whole stream — Calibration's input, never reset.
	attr  map[string]exec.PlanTrace
	calib map[string]*designer.TemplateCalibration

	sinceCheck   int
	lastRedesign float64
	report       Report

	// obs/tr are the metric handles and tracer from Config.Metrics/Trace;
	// with both unset every update below is a no-op (metrics.go).
	obs ctlObs
	tr  *obs.Tracer
}

// New builds a controller over the designer inputs in common (W is
// ignored; the monitor supplies each redesign's workload) with initial as
// the already-deployed design. The monitor starts rebased on the initial
// design, so drift is measured against it.
func New(common designer.Common, initial *designer.Design, cfg Config) (*Controller, error) {
	if initial == nil {
		return nil, fmt.Errorf("adapt: an initial deployed design is required")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("adapt: a positive space budget is required")
	}
	cfg.fill()
	c := &Controller{
		cfg:       cfg,
		common:    common,
		model:     costmodel.NewAware(common.St, common.Disk),
		cache:     cfg.Cache,
		incumbent: initial,
		deployed:  initial,
		rates:     make(map[string]float64),
		lbCache:   make(map[string]float64),
		attr:      make(map[string]exec.PlanTrace),
		calib:     make(map[string]*designer.TemplateCalibration),
		obs:       newCtlObs(cfg.Metrics),
		tr:        cfg.Trace,
	}
	if c.cache == nil {
		c.cache = designer.NewObjectCache()
	}
	mon, err := workload.New(cfg.Monitor, func() float64 { return c.clock })
	if err != nil {
		return nil, err
	}
	c.Mon = mon
	c.Mon.Rebase(c.costOf(initial))
	if len(common.W) > 0 {
		// Drift is measured against the mix the initial design was solved
		// for, not against an empty table (which any first observation
		// would "drift" from).
		c.Mon.PrimeBaseline(common.W)
	}
	return c, nil
}

// Clock returns the simulated time in seconds.
func (c *Controller) Clock() float64 { return c.clock }

// Incumbent returns the current target design (the deployed design, or
// the migration target while builds are in flight).
func (c *Controller) Incumbent() *designer.Design { return c.incumbent }

// Deployed returns the design physically serving queries right now.
func (c *Controller) Deployed() *designer.Design { return c.deployed }

// Migrating reports whether a migration is in flight.
func (c *Controller) Migrating() bool { return c.mig != nil }

// Journal returns a deep copy of the latest migration's step journal (the
// durable record a real deployment would fsync per step), or nil if no
// migration has started. After a crash (fault.ErrCrash from Process) this
// is the state Resume restarts from.
func (c *Controller) Journal() *deploy.Journal { return c.journal.Clone() }

// Report returns a snapshot of the telemetry.
func (c *Controller) Report() Report {
	r := c.report
	r.Clock = c.clock
	r.Events = append([]Event(nil), c.report.Events...)
	r.RedesignLog = append([]*RedesignInfo(nil), c.report.RedesignLog...)
	return r
}

// event appends a trace entry and mirrors it to the structured tracer
// (stamped with the simulated clock, so replays are byte-identical).
func (c *Controller) event(kind EventKind, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	c.report.Events = append(c.report.Events, Event{
		Kind: kind, Clock: c.clock, Observed: c.report.Observed,
		Detail: detail,
	})
	c.tr.Event(c.clock, kind.String(),
		obs.F("observed", c.report.Observed), obs.F("detail", detail))
}

// Process executes one query of the stream on the simulated substrate:
// the monitor observes it, the query is charged its measured seconds on
// the currently deployed state, the simulated clock advances by the same
// amount, in-flight builds that completed during the execution are
// deployed (possibly replanning the remainder), and the drift check runs
// on its cadence. Returns the query's measured seconds.
//
// Process never panics: a panic anywhere below it — including one
// re-raised from a par.ForEach worker (*par.WorkerPanic, which carries
// the worker's original stack) — is recovered into the returned error, so
// one poisoned query poisons one Process call, not the process. An
// injected crash surfaces as an error wrapping fault.ErrCrash with the
// migration journal intact; rebuild with Resume to continue.
func (c *Controller) Process(q *query.Query) (sec float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			sec = 0
			name := "<nil>"
			if q != nil {
				name = q.Name
			}
			if e, ok := r.(error); ok {
				err = fmt.Errorf("adapt: panic while processing %s: %w", name, e)
			} else {
				err = fmt.Errorf("adapt: panic while processing %s: %v", name, r)
			}
		}
	}()
	c.Mon.Observe(q)
	sec, key, err := c.priceTemplate(q)
	if err != nil {
		return 0, err
	}
	c.recordServe(key, sec)
	c.clock += sec
	c.report.Cum += sec
	c.report.Observed++
	c.sinceCheck++
	c.obs.observations.Inc()
	if err := c.advanceMigration(); err != nil {
		return 0, err
	}
	if c.mig == nil && c.sinceCheck >= c.cfg.CheckEvery {
		c.sinceCheck = 0
		c.obs.driftChecks.Inc()
		if rep := c.Mon.Drift(); rep.Drifted && c.clock-c.lastRedesign >= c.cfg.MinGap {
			c.obs.driftTriggers.Inc()
			c.tr.Event(c.clock, "drift", obs.F("report", rep.String()))
			if err := c.redesign(rep); err != nil {
				return 0, err
			}
		}
	}
	return sec, nil
}

// Run processes a whole stream and returns the final report.
func (c *Controller) Run(stream []*query.Query) (Report, error) {
	for _, q := range stream {
		if _, err := c.Process(q); err != nil {
			return c.Report(), err
		}
	}
	return c.Report(), nil
}

// rateFor returns the measured seconds of q's template on the deployed
// state, measuring lazily on first sight per (state, template). Pricing
// only — serve attribution is Process's recordServe.
func (c *Controller) rateFor(q *query.Query) (float64, error) {
	sec, _, err := c.priceTemplate(q)
	return sec, err
}

// measuredRate sums weight·measured-seconds over the snapshot, measuring
// any template not yet priced on the deployed state — the MigrationPrefix
// evaluation driving the replan decision. Returns the rate and the total
// weight.
func (c *Controller) measuredRate(w query.Workload) (float64, float64, error) {
	rate, wTotal := 0.0, 0.0
	for _, q := range w {
		sec, err := c.rateFor(q)
		if err != nil {
			return 0, 0, err
		}
		wt := q.EffectiveWeight()
		rate += wt * sec
		wTotal += wt
	}
	return rate, wTotal, nil
}

// scheduleHead schedules the next attempt of the migration's head build
// starting at start: the injector draws the attempt's fate (fail/delay)
// up front — the fate of a build is decided when it starts, not when it
// lands — and the completion time includes any injected slowdown.
func (c *Controller) scheduleHead(start float64) {
	m := c.mig
	m.pending = c.cfg.Faults.BuildAttempt(m.plan.Builds[m.order[0]].Name)
	m.nextDone = start + m.builds[0]*(1+m.pending.DelayFactor)
}

// finishMigration closes out an in-flight migration. A migration that
// skipped builds lands short of its target: the deployed prefix — not the
// unreachable target — becomes the incumbent, and the drift baseline is
// rebased on it so a later redesign can retry the missing objects.
func (c *Controller) finishMigration() {
	m := c.mig
	c.mig = nil
	c.obs.migrations.Inc()
	c.obs.migInFlight.Set(0)
	c.obs.remainingBuilds.Set(0)
	if len(m.skipped) > 0 {
		c.incumbent = c.deployed
		c.Mon.Rebase(c.costOf(c.deployed))
		c.event(EventMigrationDone, "migration to %s complete degraded: %d of %d builds skipped; incumbent is deployed prefix %s",
			m.plan.To.Name, len(m.skipped), len(m.plan.Builds), c.deployed.Name)
		return
	}
	c.event(EventMigrationDone, "migration to %s complete", c.incumbent.Name)
}

// advanceMigration deploys every build whose completion time the clock
// has passed, re-measuring the new prefix after each and replanning the
// remaining schedule when the measured rate diverges from the modeled
// one. Injected build failures consume the attempt's full build seconds,
// then a backoff wait — both charged to the simulated timeline — before
// the retry; a build exhausting Config.Retry is skipped and the remaining
// schedule re-solved without it.
func (c *Controller) advanceMigration() error {
	for c.mig != nil && c.clock >= c.mig.nextDone {
		m := c.mig
		bi := m.order[0]
		finished := m.nextDone
		name := m.plan.Builds[bi].Name

		if m.pending.Fail {
			m.attempts[name]++
			if m.attempts[name] <= c.cfg.Retry.Retries {
				wait := c.cfg.Retry.Wait(m.attempts[name], c.cfg.Faults)
				c.report.Retries++
				c.obs.retries.Inc()
				c.event(EventBuildFailed, "build %s failed (attempt %d/%d); retrying in %.2fs",
					name, m.attempts[name], c.cfg.Retry.Retries+1, wait)
				c.scheduleHead(finished + wait)
				continue
			}
			// Retries exhausted: abandon the build and re-solve the rest.
			m.order = m.order[1:]
			m.builds = m.builds[1:]
			m.rates = m.rates[1:]
			m.skipped = append(m.skipped, bi)
			c.report.SkippedBuilds++
			c.obs.skips.Inc()
			c.obs.remainingBuilds.Set(int64(len(m.order)))
			c.journalSkip(bi)
			c.event(EventBuildSkipped, "build %s failed %d times; skipped, %d builds remain",
				name, m.attempts[name], len(m.order))
			if len(m.order) == 0 {
				c.finishMigration()
				return nil
			}
			w := c.Mon.Snapshot()
			if len(w) == 0 {
				c.scheduleHead(finished)
				continue
			}
			if err := c.replan(w, finished); err != nil {
				return err
			}
			continue
		}

		// The step's simulated duration: the modeled build seconds plus
		// any injected slowdown (what nextDone was scheduled from).
		c.obs.buildSeconds.Observe(m.builds[0] * (1 + m.pending.DelayFactor))
		m.done = append(m.done, bi)
		m.order = m.order[1:]
		m.builds = m.builds[1:]
		m.rates = m.rates[1:]
		c.report.BuildsDone++
		c.obs.builds.Inc()
		c.obs.remainingBuilds.Set(int64(len(m.order)))

		// The new prefix serves from here; every template re-prices.
		w := c.Mon.Snapshot()
		c.deployed = m.plan.PrefixDesign(c.model, w, m.done)
		c.rates = make(map[string]float64)
		c.event(EventBuild, "built %s (%d/%d)", name,
			len(m.done), len(m.done)+len(m.order))
		c.journalDone(bi)
		crash := c.cfg.Faults.BuildCompleted()

		if len(m.order) == 0 {
			c.finishMigration()
			if crash {
				return fmt.Errorf("adapt: %w after build %s (journal: %d done, 0 remaining)",
					fault.ErrCrash, name, len(m.done))
			}
			return nil
		}
		if crash {
			return fmt.Errorf("adapt: %w after build %s (journal: %d done, %d remaining)",
				fault.ErrCrash, name, len(m.done), len(m.order))
		}

		// Replan check: scale-free comparison of the measured per-weight
		// rate of the deployed prefix against the per-weight rate the
		// schedule assumed for the next step.
		if c.cfg.ReplanTolerance < 0 || len(w) == 0 {
			c.scheduleHead(finished)
			continue
		}
		meas, wTot, err := c.measuredRate(w)
		if err != nil {
			return err
		}
		modeled := m.rates[0] / m.wTotal
		measured := meas / wTot
		diverged := modeled > 0 && abs(measured/modeled-1) > c.cfg.ReplanTolerance
		if diverged {
			if err := c.replan(w, finished); err != nil {
				return err
			}
			continue
		}
		c.scheduleHead(finished)
	}
	return nil
}

// journalDone records a completed build in the journal and refreshes the
// planned remainder.
func (c *Controller) journalDone(bi int) {
	if c.journal == nil {
		return
	}
	c.journal.Done = append(c.journal.Done, bi)
	c.syncJournalNext()
}

// journalSkip records an abandoned build in the journal.
func (c *Controller) journalSkip(bi int) {
	if c.journal == nil {
		return
	}
	c.journal.Skipped = append(c.journal.Skipped, bi)
	c.syncJournalNext()
}

// syncJournalNext mirrors the in-flight remaining order into the journal
// (after a build, skip or replan reshapes it).
func (c *Controller) syncJournalNext() {
	if c.journal == nil {
		return
	}
	if c.mig == nil {
		c.journal.Next = nil
		return
	}
	c.journal.Next = append([]int(nil), c.mig.order...)
}

// replan re-solves the remaining scheduling problem under the current
// snapshot: modeled per-query times for the remaining builds, the current
// deployed prefix as the base state, and build costs that may shortcut
// through kept objects, already-deployed builds, or other remaining
// builds. The solved order replaces the remainder of the schedule.
func (c *Controller) replan(w query.Workload, now float64) error {
	m := c.mig
	st, disk := c.common.St, c.common.Disk
	nQ := len(w)

	base := make([]float64, nQ)
	weights := make([]float64, nQ)
	wTotal := 0.0
	avail := append([]*costmodel.MVDesign(nil), m.plan.Kept...)
	for _, bi := range m.done {
		avail = append(avail, m.plan.Builds[bi])
	}
	for qi, q := range w {
		t, _ := c.model.Estimate(c.incumbent.Base, q)
		for _, md := range avail {
			if tk, _ := c.model.Estimate(md, q); tk < t {
				t = tk
			}
		}
		base[qi] = t
		weights[qi] = q.EffectiveWeight()
		wTotal += weights[qi]
	}

	prob := &deploy.Problem{Base: base, Weights: weights}
	for _, oi := range m.order {
		md := m.plan.Builds[oi]
		times := make([]float64, nQ)
		for qi, q := range w {
			times[qi], _ = c.model.Estimate(md, q)
		}
		build := costmodel.BuildSeconds(st, disk, md, nil)
		for _, src := range avail {
			if costmodel.CanBuildFrom(md, src) {
				if b := costmodel.BuildSeconds(st, disk, md, src); b < build {
					build = b
				}
			}
		}
		o := deploy.Object{Name: md.Name, Times: times, Build: build}
		for j, oj := range m.order {
			if oj == oi || !costmodel.CanBuildFrom(md, m.plan.Builds[oj]) {
				continue
			}
			if b := costmodel.BuildSeconds(st, disk, md, m.plan.Builds[oj]); b < build {
				o.From = append(o.From, deploy.Shortcut{Src: j, Cost: b})
			}
		}
		prob.Objects = append(prob.Objects, o)
	}

	dep := c.cfg.Deploy
	if sink := c.solveSink("replan"); sink != nil {
		dep.Progress = sink
	}
	sched, err := deploy.Solve(prob, dep)
	if err != nil {
		return err
	}
	order := make([]int, len(sched.Order))
	for k, ri := range sched.Order {
		order[k] = m.order[ri]
	}
	m.order = order
	m.builds = append([]float64(nil), sched.Builds...)
	m.rates = append([]float64(nil), sched.Rates...)
	m.wTotal = wTotal
	c.syncJournalNext()
	c.scheduleHead(now)
	c.report.Replans++
	c.obs.replans.Inc()
	c.obs.solverNodes.Add(sched.Nodes)
	c.obs.solverPruned.Add(sched.Pruned)
	c.obs.solverIncumbents.Add(sched.Incumbents)
	c.obs.solveNodes.Observe(float64(sched.Nodes))
	c.tr.Event(c.clock, "solve", solveF("replan", sched.Nodes, sched.Pruned, sched.Incumbents, sched.Proven)...)
	c.event(EventReplan, "replanned %d remaining builds (nodes %d, next %s)",
		len(order), sched.Nodes, m.plan.Builds[order[0]].Name)
	return nil
}

// redesign runs the drift-triggered incremental redesign and, when the
// target differs from the incumbent, plans and starts the migration.
func (c *Controller) redesign(drift workload.DriftReport) error {
	w := c.Mon.Snapshot()
	if len(w) == 0 {
		return nil
	}
	common := c.common
	common.W = w
	// A redesign must answer before the workload moves on: deadline the
	// selection solves (wall-clock, or the injector's deterministic node
	// cap). Warm starts adopt the incumbent's objects up front, so a
	// deadline-cut solve still holds a feasible design never worse than
	// the deployed one — degradation, not failure.
	fb := c.cfg.FB
	if fb.Solve.IsZero() {
		fb.Solve = c.common.Solve
	}
	if c.cfg.SolveTimeLimit > 0 {
		fb.Solve.TimeLimit = c.cfg.SolveTimeLimit
	}
	if cut := c.cfg.Faults.SolveInterrupt(); cut != nil {
		fb.Solve.Interrupt = cut
	}
	if sink := c.solveSink("redesign"); sink != nil {
		fb.Solve.Progress = sink
	}
	des := designer.NewCORADD(common, c.cfg.Cand, fb)
	d2, err := des.DesignFrom(c.cfg.Budget, c.incumbent)
	if err != nil {
		return err
	}
	info := &RedesignInfo{
		Clock: c.clock, Drift: drift, Snapshot: w,
		Solve: des.LastSolve, Design: d2, Nodes: d2.SolverNodes,
		Proven: d2.SolverProven,
	}
	c.report.Redesigns++
	c.report.RedesignLog = append(c.report.RedesignLog, info)
	c.lastRedesign = c.clock
	c.obs.redesigns.Inc()
	c.obs.solverNodes.Add(d2.SolverNodes)
	c.obs.solveNodes.Observe(float64(d2.SolverNodes))
	pruned, incumbents := 0, 0
	if info.Solve != nil && info.Solve.Sol != nil {
		pruned, incumbents = info.Solve.Sol.Pruned, info.Solve.Sol.IncumbentUpdates
		c.obs.solverPruned.Add(pruned)
		c.obs.solverIncumbents.Add(incumbents)
	}
	c.tr.Event(c.clock, "solve", solveF("redesign", d2.SolverNodes, pruned, incumbents, d2.SolverProven)...)
	if !d2.SolverProven {
		c.report.Degraded++
		c.obs.degraded.Inc()
		c.event(EventSolveDegraded, "redesign solve hit its deadline after %d nodes; adopting unproven warm-started incumbent",
			d2.SolverNodes)
	}

	if sameObjects(c.incumbent, d2) {
		// The recent mix still wants the incumbent: re-anchor drift
		// detection so the same signal does not re-trigger immediately.
		c.Mon.Rebase(c.costOf(c.incumbent))
		c.event(EventRedesign, "drift (%s) but redesign matches incumbent", drift)
		return nil
	}
	info.Changed = true

	dep := c.cfg.Deploy
	if sink := c.solveSink("schedule"); sink != nil {
		dep.Progress = sink
	}
	plan, err := designer.PlanMigration(c.common.St, c.common.Disk, w, des.Model,
		c.incumbent, d2, dep)
	if err != nil {
		return err
	}
	fromName := c.incumbent.Name
	c.incumbent = d2
	c.Mon.Rebase(c.costOf(d2))
	c.event(EventRedesign, "drift (%s) → redesign: %d kept, %d dropped, %d builds, %d solver nodes",
		drift, len(plan.Kept), len(plan.Dropped), len(plan.Builds), d2.SolverNodes)

	// Drops are instantaneous and happen up front: the workload runs on
	// the kept prefix from now.
	c.deployed = plan.PrefixDesign(c.model, w, nil)
	c.rates = make(map[string]float64)
	c.journal = plan.NewJournal(fromName)
	if len(plan.Builds) == 0 {
		c.event(EventMigrationDone, "migration to %s complete (drops only)", d2.Name)
		return nil
	}
	sched := plan.Schedule
	c.mig = &migration{
		plan:     plan,
		order:    append([]int(nil), sched.Order...),
		builds:   append([]float64(nil), sched.Builds...),
		rates:    append([]float64(nil), sched.Rates...),
		wTotal:   totalWeight(w),
		attempts: make(map[string]int),
	}
	c.obs.migInFlight.Set(1)
	c.obs.remainingBuilds.Set(int64(len(c.mig.order)))
	c.scheduleHead(c.clock)
	return nil
}

// RestartIdle rebuilds a controller after a process restart that landed
// *between* migrations: deployed is the design that was serving at the
// last checkpoint and common.W the checkpointed monitor snapshot. The
// monitor is re-seeded from the snapshot (whose weights are the crashed
// monitor's decayed rates) and the drift baseline re-anchored on it, so
// detection continues the old trajectory instead of reading the first few
// post-restart observations as drift. The counterpart of Resume for
// checkpoints that carry no in-flight journal (internal/durable).
func RestartIdle(common designer.Common, deployed *designer.Design, cfg Config) (*Controller, error) {
	if len(common.W) == 0 {
		return nil, fmt.Errorf("adapt: restart needs a baseline workload (the checkpointed monitor snapshot)")
	}
	c, err := New(common, deployed, cfg)
	if err != nil {
		return nil, err
	}
	c.Mon.PrimeRates(common.W)
	c.Mon.Rebase(c.costOf(deployed))
	c.obs.resumes.Inc()
	c.event(EventResume, "restarted idle on design %s: %d templates primed", deployed.Name, len(common.W))
	return c, nil
}

// Resume rebuilds a controller from a migration journal after a crash
// (an injected fault.ErrCrash, or a real process death whose journal
// survived). to is the crashed migration's target design — in a real
// deployment reloaded from the durable design catalog — and common.W the
// restarted monitor's baseline workload. The resumed controller serves
// from the journaled prefix design and follows the journaled remaining
// order rather than re-deciding it, so an interrupted run's step sequence
// matches the uninterrupted run's exactly. The simulated clock restarts
// at zero: a resumed timeline is a new timeline.
func Resume(common designer.Common, to *designer.Design, j *deploy.Journal, cfg Config) (*Controller, error) {
	if j == nil {
		return nil, fmt.Errorf("adapt: a journal is required to resume")
	}
	if len(common.W) == 0 {
		return nil, fmt.Errorf("adapt: resume needs a baseline workload (the crashed monitor's last snapshot)")
	}
	c, err := New(common, to, cfg)
	if err != nil {
		return nil, err
	}
	// The restarted monitor must continue the crashed monitor's EWMA
	// trajectory, not start empty: seed the template rates from the
	// snapshot (whose weights are the crashed monitor's decayed rates) and
	// re-anchor drift on the seeded table. An empty table would converge
	// to the first few post-restart observations and read as drift the
	// crashed monitor never saw.
	c.Mon.PrimeRates(common.W)
	c.Mon.Rebase(c.costOf(to))
	plan, err := designer.ResumeMigration(common.St, common.Disk, common.W, c.model, to, j)
	if err != nil {
		return nil, err
	}
	c.journal = j.Clone()
	c.deployed = plan.PrefixDesign(c.model, common.W, j.Done)
	c.rates = make(map[string]float64)
	c.obs.resumes.Inc()
	c.obs.journalReplays.Add(len(j.Done))
	c.event(EventResume, "resumed migration %s → %s from journal: %d built, %d remaining, %d skipped",
		j.From, j.To, len(j.Done), len(j.Next), len(j.Skipped))
	if len(j.Next) == 0 {
		// The crash landed after the final build: nothing left in flight.
		if len(j.Skipped) > 0 {
			c.incumbent = c.deployed
			c.Mon.Rebase(c.costOf(c.deployed))
		}
		c.event(EventMigrationDone, "migration to %s complete", c.incumbent.Name)
		return c, nil
	}
	// The resumed plan priced the order Done ++ Next ++ Skipped; slice out
	// Next's span for the in-flight remainder.
	sched := plan.Schedule
	lo, hi := len(j.Done), len(j.Done)+len(j.Next)
	c.mig = &migration{
		plan:     plan,
		order:    append([]int(nil), j.Next...),
		builds:   append([]float64(nil), sched.Builds[lo:hi]...),
		rates:    append([]float64(nil), sched.Rates[lo:hi]...),
		wTotal:   totalWeight(common.W),
		done:     append([]int(nil), j.Done...),
		skipped:  append([]int(nil), j.Skipped...),
		attempts: make(map[string]int),
	}
	c.obs.migInFlight.Set(1)
	c.obs.remainingBuilds.Set(int64(len(c.mig.order)))
	c.scheduleHead(c.clock)
	return c, nil
}

// costOf builds the monitor's cost function for incumbent design d: cur
// is the model's routed estimate on d, lb the memoized dedicated-MV lower
// bound (clipped to cur so the ratio is ≥ 1 per template).
func (c *Controller) costOf(d *designer.Design) workload.CostFn {
	return func(q *query.Query) (cur, lb float64) {
		cur, _ = c.model.Estimate(d.Base, q)
		for _, md := range d.Chosen {
			if t, _ := c.model.Estimate(md, q); t < cur {
				cur = t
			}
		}
		key := workload.Fingerprint(q)
		lb, ok := c.lbCache[key]
		if !ok {
			lb = cur
			if md := dedicatedMV(c.common.St, q); md != nil {
				if t, _ := c.model.Estimate(md, q); t < lb {
					lb = t
				}
			}
			c.lbCache[key] = lb
		}
		if lb > cur {
			lb = cur
		}
		return cur, lb
	}
}

// dedicatedMV is the lower-bound object for one query: exactly its
// columns, clustered on its dedicated key (candgen.DedicatedKey — the
// §4.2 ordering: equality → range → IN, ascending propagated
// selectivity within a class).
func dedicatedMV(st *stats.Stats, q *query.Query) *costmodel.MVDesign {
	sch := st.Rel.Schema
	var cols []int
	for _, name := range q.AllColumns() {
		if p := sch.Col(name); p >= 0 {
			cols = append(cols, p)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	sort.Ints(cols)
	key := candgen.DedicatedKey(st, q)
	if len(key) == 0 {
		key = cols[:1]
	}
	return &costmodel.MVDesign{Name: "lb(" + q.Name + ")", Cols: cols, ClusterKey: key}
}

// sameObjects reports whether two designs deploy the same object set.
func sameObjects(a, b *designer.Design) bool {
	if len(a.Chosen) != len(b.Chosen) {
		return false
	}
	keys := make(map[string]int, len(a.Chosen))
	for _, md := range a.Chosen {
		keys[md.Key()]++
	}
	for _, md := range b.Chosen {
		if keys[md.Key()] == 0 {
			return false
		}
		keys[md.Key()]--
	}
	return true
}

func totalWeight(w query.Workload) float64 {
	t := 0.0
	for _, q := range w {
		t += q.EffectiveWeight()
	}
	return t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
