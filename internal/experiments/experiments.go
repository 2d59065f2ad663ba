// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 5 and 6) on the synthetic benchmark suite. It is the
// shared engine behind cmd/hotpath and the repository's benchmark harness.
//
// Experiment index:
//
//	Table 1  — benchmark set: paths, flow, 0.1% HotPath size and coverage
//	Table 2  — paths vs unique path heads (counter space)
//	Figure 2 — hit rate vs profiled flow, path-profile vs NET, sweep of τ
//	Figure 3 — noise rate vs profiled flow, same sweep
//	Figure 4 — NET counter space normalized to path-profile counter space
//	Figure 5 — mini-Dynamo speedup over native, NET vs path-profile, τ ∈ {10,50,100}
//	Phases   — §6.1/§7 extension: windowed hit/noise with retiring
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"netpath/internal/dynamo"
	"netpath/internal/metrics"
	"netpath/internal/par"
	"netpath/internal/profile"
	"netpath/internal/prog"
	"netpath/internal/staticpred"
	"netpath/internal/tables"
	"netpath/internal/workload"
)

// PaperTable1 records the paper's published Table 1 values for side-by-side
// comparison: #Paths, Flow (millions), hot-set size, hot flow percentage.
var PaperTable1 = map[string]struct {
	Paths    int
	FlowM    int
	HotPaths int
	HotPct   float64
}{
	"compress":  {230, 3061, 45, 99.6},
	"gcc":       {36738, 2191, 137, 47.5},
	"go":        {29629, 1214, 172, 55.5},
	"ijpeg":     {62125, 635, 74, 93.3},
	"li":        {1391, 3985, 111, 93.8},
	"m88ksim":   {1426, 2014, 107, 92.5},
	"perl":      {2776, 1514, 146, 88.5},
	"vortex":    {5825, 3016, 95, 85.8},
	"deltablue": {505, 1799, 28, 93.9},
}

// PaperTable2 records the paper's Table 2 unique-path-head counts.
var PaperTable2 = map[string]int{
	"compress": 143, "gcc": 8873, "go": 1813, "ijpeg": 669, "li": 710,
	"m88ksim": 651, "perl": 1053, "vortex": 3414, "deltablue": 268,
}

// HotFrac is the paper's hot threshold: 0.1% of total flow.
const HotFrac = 0.001

// BenchProfile bundles a benchmark's oracle profile and hot set.
type BenchProfile struct {
	Name string
	Prof *profile.Profile
	Hot  *profile.HotSet
}

// CollectAll runs every benchmark at the given scale and collects oracle
// profiles. This is the expensive step shared by Tables 1-2 and Figures 2-4;
// each benchmark is fully independent (its own VM, tracker and interner), so
// the runs fan out over the par worker pool. Results keep workload.All()
// order regardless of scheduling; the first failure cancels the rest.
func CollectAll(scale float64) ([]BenchProfile, error) {
	bs := workload.All()
	planCells(len(bs))
	return par.MapErr(context.Background(), len(bs),
		func(_ context.Context, i int) (BenchProfile, error) {
			b := bs[i]
			p, err := b.Build(scale)
			if err != nil {
				return BenchProfile{}, fmt.Errorf("experiments: %s: %w", b.Name, err)
			}
			pr, err := profile.Collect(p, 0)
			if err != nil {
				return BenchProfile{}, fmt.Errorf("experiments: %s: %w", b.Name, err)
			}
			cellDone(nil)
			return BenchProfile{Name: b.Name, Prof: pr, Hot: pr.Hot(HotFrac)}, nil
		})
}

// Table1 renders the benchmark-set table with the paper's values alongside.
func Table1(bps []BenchProfile) string {
	t := tables.New("Benchmark", "#Paths", "Flow(K)", "Hot #Paths", "Hot %Flow",
		"paper #Paths", "paper Flow(M)", "paper Hot", "paper %Flow")
	for _, bp := range bps {
		pp := PaperTable1[bp.Name]
		t.Row(bp.Name,
			tables.Count(int64(bp.Prof.NumPaths())),
			tables.Count(bp.Prof.Flow/1000),
			bp.Hot.Count,
			tables.Pct(bp.Hot.FlowPct(bp.Prof)),
			tables.Count(int64(pp.Paths)), pp.FlowM, pp.HotPaths, tables.Pct(pp.HotPct))
	}
	return "Table 1: benchmark set (0.1% HotPath)\n" + t.String()
}

// Table2 renders paths vs unique path heads.
func Table2(bps []BenchProfile) string {
	t := tables.New("Benchmark", "#Paths", "#Heads", "Heads/Paths",
		"paper #Paths", "paper #Heads", "paper ratio")
	for _, bp := range bps {
		paths := bp.Prof.NumPaths()
		heads := bp.Prof.UniqueHeads()
		pp := PaperTable1[bp.Name]
		ph := PaperTable2[bp.Name]
		t.Row(bp.Name,
			tables.Count(int64(paths)), tables.Count(int64(heads)),
			fmt.Sprintf("%.3f", float64(heads)/float64(paths)),
			tables.Count(int64(pp.Paths)), tables.Count(int64(ph)),
			fmt.Sprintf("%.3f", float64(ph)/float64(pp.Paths)))
	}
	return "Table 2: number of paths and unique path heads\n" + t.String()
}

// Series is one benchmark's sweep under one scheme.
type Series struct {
	Scheme string
	Bench  string
	Points []metrics.Point
}

// SweepSchemes runs the τ sweep for path-profile-based, NET and static
// (profile-free) prediction over every benchmark profile. The grid is
// flattened to individual (benchmark, scheme, τ) cells — each builds a
// fresh predictor and replays the shared read-only stream — and the cells
// fan out over the par worker pool, writing into preallocated slots so the
// output is identical to the serial nested loops. The static scheme has no
// delay knob (τ is zero by construction); its series carries the same
// point at every τ and renders as the flat profile-free baseline.
func SweepSchemes(bps []BenchProfile, taus []int64) []Series {
	out := make([]Series, 0, 3*len(bps))
	facs := make([]metrics.Factory, 0, 3*len(bps))
	for _, bp := range bps {
		out = append(out, Series{Scheme: "pathprofile", Bench: bp.Name, Points: make([]metrics.Point, len(taus))})
		facs = append(facs, metrics.PathProfileFactory())
		out = append(out, Series{Scheme: "net", Bench: bp.Name, Points: make([]metrics.Point, len(taus))})
		facs = append(facs, metrics.NETFactory(bp.Prof))
		out = append(out, Series{Scheme: "static", Bench: bp.Name, Points: make([]metrics.Point, len(taus))})
		facs = append(facs, metrics.StaticFactory(bp.Prof))
	}
	planCells(len(out) * len(taus))
	par.Do(len(out)*len(taus), func(cell int) {
		si, ti := cell/len(taus), cell%len(taus)
		bp := bps[si/3]
		sink := telSink()
		pred := facs[si](taus[ti])
		attachPredictor(pred, sink)
		out[si].Points[ti] = metrics.Evaluate(bp.Prof, bp.Hot, pred, taus[ti])
		cellDone(sink)
	})
	return out
}

// StaticReport renders the profile-free static scheme head-to-head against
// NET at the paper's headline delay τ=50: hit and noise rates, the size and
// quality of the static predicted set (phantom walks predicted paths that
// never execute; aborted walks hit indirect control), and counter space —
// zero by construction for static, the scheme's defining property.
func StaticReport(bps []BenchProfile) string {
	const tau = 50
	type row struct {
		sp  *staticpred.Predictor
		st  metrics.Point
		net metrics.Point
	}
	planCells(len(bps))
	rows := par.Map(len(bps), func(i int) row {
		bp := bps[i]
		sink := telSink()
		sp, err := staticpred.Predict(bp.Prof)
		if err != nil {
			sp = staticpred.NewPredictor(bp.Prof, nil)
		}
		sp.SetTelemetry(sink)
		st := metrics.Evaluate(bp.Prof, bp.Hot, sp, 0)
		net := metrics.Evaluate(bp.Prof, bp.Hot, metrics.NETFactory(bp.Prof)(tau), tau)
		cellDone(sink)
		return row{sp: sp, st: st, net: net}
	})
	t := tables.New("Benchmark", "static hit%", "static noise%", "NET50 hit%", "NET50 noise%",
		"predicted", "phantoms", "aborts", "static ctrs", "NET ctrs")
	for i, bp := range bps {
		r := rows[i]
		t.Row(bp.Name,
			tables.Pct(r.st.HitRate()), tables.Pct(r.st.NoiseRate()),
			tables.Pct(r.net.HitRate()), tables.Pct(r.net.NoiseRate()),
			r.st.PredictedHot+r.st.PredictedCold, r.sp.Phantoms, r.sp.Aborts,
			r.st.CounterSpace, r.net.CounterSpace)
	}
	return "Static prediction: profile-free hot paths vs NET (τ=50), zero counters and zero delay\n" + t.String()
}

// rate selects which figure a rendering serves.
type rate int

const (
	hitRate rate = iota
	noiseRate
)

// renderRate renders one scheme's series set as the paper's figure data:
// per benchmark (and the cross-benchmark average), the (profiled flow %,
// rate %) pairs across the τ sweep. zoomPct > 0 restricts to points with
// profiled flow below the given percentage (the right-hand zoom panels).
func renderRate(series []Series, scheme string, r rate, zoomPct float64) string {
	var names []string
	byBench := map[string][]metrics.Point{}
	for _, s := range series {
		if s.Scheme != scheme {
			continue
		}
		byBench[s.Bench] = s.Points
		names = append(names, s.Bench)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	taus := make([]int64, 0)
	for _, pt := range byBench[names[0]] {
		taus = append(taus, pt.Tau)
	}

	label, title := "hit rate", "Hit rate"
	if r == noiseRate {
		label, title = "noise rate", "Noise rate"
	}
	headers := []string{"tau"}
	for _, n := range names {
		headers = append(headers, n)
	}
	headers = append(headers, "Average")
	t := tables.New(headers...)
	for i, tau := range taus {
		row := []any{tau}
		sumProf, sumRate := 0.0, 0.0
		include := true
		for _, n := range names {
			pt := byBench[n][i]
			v := pt.HitRate()
			if r == noiseRate {
				v = pt.NoiseRate()
			}
			row = append(row, fmt.Sprintf("%5.1f@%-5.1f", v, pt.ProfiledPct()))
			sumProf += pt.ProfiledPct()
			sumRate += v
		}
		avgProf := sumProf / float64(len(names))
		avgRate := sumRate / float64(len(names))
		if zoomPct > 0 && avgProf > zoomPct {
			include = false
		}
		row = append(row, fmt.Sprintf("%5.1f@%-5.1f", avgRate, avgProf))
		if include {
			t.Row(row...)
		}
	}
	zoom := ""
	if zoomPct > 0 {
		zoom = fmt.Sprintf(" (zoom: average profiled flow <= %.0f%%)", zoomPct)
	}
	return fmt.Sprintf("%s, %s prediction%s — cells are %s%%@profiled-flow%%\n%s",
		title, schemeTitle(scheme), zoom, label, t.String())
}

func schemeTitle(scheme string) string {
	switch scheme {
	case "net":
		return "NET"
	case "static":
		return "static (profile-free)"
	}
	return "path profile based"
}

// Fig2 renders the hit-rate figure: full range and ≤10% zoom, both schemes.
func Fig2(series []Series) string {
	var b strings.Builder
	b.WriteString("Figure 2: hit rates (percentage of 0.1% hot flow captured after prediction)\n\n")
	b.WriteString("(a) " + renderRate(series, "pathprofile", hitRate, 0) + "\n")
	b.WriteString("(b) " + renderRate(series, "pathprofile", hitRate, 10) + "\n")
	b.WriteString("(c) " + renderRate(series, "net", hitRate, 0) + "\n")
	b.WriteString("(d) " + renderRate(series, "net", hitRate, 10) + "\n")
	b.WriteString("(e) " + renderRate(series, "static", hitRate, 0) + "\n")
	return b.String()
}

// Fig3 renders the noise-rate figure.
func Fig3(series []Series) string {
	var b strings.Builder
	b.WriteString("Figure 3: noise rates (cold flow predicted, as percentage of hot flow)\n\n")
	b.WriteString("(a) " + renderRate(series, "pathprofile", noiseRate, 0) + "\n")
	b.WriteString("(b) " + renderRate(series, "pathprofile", noiseRate, 10) + "\n")
	b.WriteString("(c) " + renderRate(series, "net", noiseRate, 0) + "\n")
	b.WriteString("(d) " + renderRate(series, "net", noiseRate, 10) + "\n")
	b.WriteString("(e) " + renderRate(series, "static", noiseRate, 0) + "\n")
	return b.String()
}

// Fig4 renders NET counter space normalized to path-profile counter space.
func Fig4(bps []BenchProfile) string {
	t := tables.New("Benchmark", "NET/PP counter space", "paper ratio")
	sum := 0.0
	for _, bp := range bps {
		ratio := metrics.CounterSpaceRatio(bp.Prof)
		sum += ratio
		pp := PaperTable1[bp.Name]
		ph := PaperTable2[bp.Name]
		t.Row(bp.Name, fmt.Sprintf("%.3f", ratio),
			fmt.Sprintf("%.3f", float64(ph)/float64(pp.Paths)))
	}
	t.Row("Average", fmt.Sprintf("%.3f", sum/float64(len(bps))), "0.38")
	return "Figure 4: NET counter space normalized to path-profile counter space\n" + t.String()
}

// Fig5Result is one mini-Dynamo cell of Figure 5.
type Fig5Result struct {
	Bench  string
	Result dynamo.Result
}

// Fig5Taus are the prediction delays of Figure 5.
var Fig5Taus = []int64{10, 50, 100}

// fig5Combos is the full Figure 5 configuration grid: NET and path-profile
// at the paper's delays, plus the static profile-free scheme, which has no
// delay knob (its predictions exist before the first instruction runs, so
// its only cell is τ=0).
func fig5Combos() []struct {
	Scheme dynamo.Scheme
	Tau    int64
} {
	var combos []struct {
		Scheme dynamo.Scheme
		Tau    int64
	}
	for _, s := range []dynamo.Scheme{dynamo.SchemeNET, dynamo.SchemePathProfile} {
		for _, tau := range Fig5Taus {
			combos = append(combos, struct {
				Scheme dynamo.Scheme
				Tau    int64
			}{s, tau})
		}
	}
	combos = append(combos, struct {
		Scheme dynamo.Scheme
		Tau    int64
	}{dynamo.SchemeStatic, 0})
	return combos
}

// fig5Keys lists the grid's column keys in render order.
var fig5Keys = []string{"NET10", "NET50", "NET100",
	"PathProfile10", "PathProfile50", "PathProfile100", "Static0"}

// Fig5Config is the configuration of one Figure 5 cell. The bail-out
// heuristic belongs to the production system; the paper reports
// path-profile slowdowns on every program the NET system processes, so the
// comparison schemes (path-profile and static) run to completion. Only
// NET's bail-outs define the figure's processed set — a comparison cell
// that bailed would otherwise erase NET's measured speedup for that row.
func Fig5Config(s dynamo.Scheme, tau int64) dynamo.Config {
	cfg := dynamo.DefaultConfig(s, tau)
	if s != dynamo.SchemeNET {
		cfg.BailoutAfter = 0
	}
	return cfg
}

// RunFig5 executes the full Figure 5 grid: NET and path-profile at delays
// 10/50/100 plus the static scheme at its fixed τ=0, over every benchmark.
// Programs are built once per benchmark (in parallel), then every
// (benchmark, scheme, τ) cell runs as an independent mini-Dynamo instance
// on the par pool — each System owns its machine, tracker and cache, and
// the shared *prog.Program is read-only. The grid map is assembled in
// benchmark order afterwards, so it is byte-identical to a serial run.
func RunFig5(scale float64) (map[string][]Fig5Result, error) {
	bs := workload.All()
	progs, err := par.MapErr(context.Background(), len(bs),
		func(_ context.Context, i int) (*prog.Program, error) {
			return bs[i].Build(scale)
		})
	if err != nil {
		return nil, err
	}
	combos := fig5Combos()
	cells := len(bs) * len(combos)
	planCells(cells)
	results, err := par.MapErr(context.Background(), cells,
		func(_ context.Context, cell int) (dynamo.Result, error) {
			bi := cell / len(combos)
			c := combos[cell%len(combos)]
			cfg := Fig5Config(c.Scheme, c.Tau)
			sink := dynamoSink(&cfg)
			res, err := dynamo.New(progs[bi], cfg).Run()
			if err != nil {
				return res, fmt.Errorf("experiments: %s %v τ=%d: %w", bs[bi].Name, c.Scheme, c.Tau, err)
			}
			cellDone(sink)
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out := map[string][]Fig5Result{}
	for cell, res := range results {
		bi := cell / len(combos)
		c := combos[cell%len(combos)]
		key := fmt.Sprintf("%v%d", c.Scheme, c.Tau)
		out[key] = append(out[key], Fig5Result{Bench: bs[bi].Name, Result: res})
	}
	return out, nil
}

// Fig5 renders the Dynamo speedup figure. Benchmarks where Dynamo bails out
// are reported as such and excluded from the average, matching the paper
// (which plots only the programs processed without bail-out).
func Fig5(grid map[string][]Fig5Result) string {
	keys := fig5Keys
	headers := append([]string{"Benchmark"}, keys...)
	t := tables.New(headers...)

	// Determine the non-bail-out set: programs Dynamo processes under every
	// configuration.
	bailed := map[string]bool{}
	for _, k := range keys {
		for _, r := range grid[k] {
			if r.Result.BailedOut {
				bailed[r.Bench] = true
			}
		}
	}
	sums := make([]float64, len(keys))
	counts := make([]int, len(keys))
	for _, name := range workload.Names() {
		row := []any{name}
		for ki, k := range keys {
			var cell string
			for _, r := range grid[k] {
				if r.Bench != name {
					continue
				}
				if bailed[name] {
					cell = "bail-out"
				} else {
					cell = tables.SignedPct(100 * r.Result.Speedup())
					sums[ki] += 100 * r.Result.Speedup()
					counts[ki]++
				}
			}
			row = append(row, cell)
		}
		t.Row(row...)
	}
	avg := []any{"Average"}
	for ki := range keys {
		if counts[ki] > 0 {
			avg = append(avg, tables.SignedPct(sums[ki]/float64(counts[ki])))
		} else {
			avg = append(avg, "-")
		}
	}
	t.Row(avg...)
	return "Figure 5: mini-Dynamo speedup over native execution\n" +
		"(bail-out rows are excluded from the average, as in the paper)\n" + t.String()
}
