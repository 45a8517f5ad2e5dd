package bench

import (
	"strconv"
	"strings"
	"testing"

	"fastbfs/internal/core"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// tinyCfg runs experiments at the smallest preset so the whole shape
// suite stays fast.
func tinyCfg() Config {
	sc, _ := ScaleByName("tiny")
	return Config{Scale: sc, Seed: 7}
}

// cell parses a numeric prefix out of a formatted cell ("1.70x" -> 1.70).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestScalePresets(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium"} {
		sc, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Factor <= 0 || sc.MidScale <= sc.TuneScale || sc.LargeScale <= sc.MidScale {
			t.Errorf("%s: inconsistent preset %+v", name, sc)
		}
	}
	if _, err := ScaleByName("galactic"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestBuildDatasets(t *testing.T) {
	vol := storage.NewMem()
	ds, err := BuildDatasets(vol, tinyCfg().Scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 4 {
		t.Fatalf("datasets = %d", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.PaperName] = true
		if d.Meta.Vertices == 0 || d.Meta.Edges == 0 {
			t.Errorf("%s: empty dataset", d.PaperName)
		}
		if d.Budget >= d.Meta.DataBytes() {
			t.Errorf("%s: budget %d not below data size %d (must be out-of-core)", d.PaperName, d.Budget, d.Meta.DataBytes())
		}
	}
	for _, want := range []string{"rmat25", "rmat27", "twitter_rv", "friendster"} {
		if !names[want] {
			t.Errorf("missing dataset %s", want)
		}
	}
}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{"fig1", "table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
	for _, id := range want {
		if Find(id) == nil {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if Find("nope") != nil {
		t.Error("Find returned an unknown experiment")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("n=%d", 3)
	tbl.PaperNote = "paper says"
	txt := tbl.Render()
	for _, want := range []string{"== x: T ==", "a ", "bb", "1", "note: n=3", "paper: paper says"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Render missing %q in:\n%s", want, txt)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### x — T", "| a | bb |", "| 1 | 2 |", "- measured: n=3", "- paper: paper says"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q in:\n%s", want, md)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tbl, err := Fig1(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("only %d levels", len(tbl.Rows))
	}
	if got := cell(t, tbl.Rows[0][4]); got != 100.0 {
		t.Errorf("level 0 live%% = %v, want 100", got)
	}
	// Live edges never increase.
	prev := 1e18
	for i, row := range tbl.Rows {
		live := cell(t, row[3])
		if live > prev {
			t.Errorf("live edges increased at level %d", i)
		}
		prev = live
	}
}

func TestTableIAndII(t *testing.T) {
	t1, err := TableI(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 3 {
		t.Fatalf("table1 rows = %d", len(t1.Rows))
	}
	t2, err := TableII(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 5 {
		t.Fatalf("table2 rows = %d (want rmat22/25/27 + twitter + friendster)", len(t2.Rows))
	}
}

func TestFig4Shape(t *testing.T) {
	tbl, err := Fig4(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		gc, xs, fb := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		if !(fb < xs) {
			t.Errorf("%s: fastbfs %v not faster than xstream %v", row[0], fb, xs)
		}
		if !(fb < gc) {
			t.Errorf("%s: fastbfs %v not faster than graphchi %v", row[0], fb, gc)
		}
		if sx := cell(t, row[4]); sx < 1.2 {
			t.Errorf("%s: speedup vs xstream %v below 1.2x", row[0], sx)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	tbl, err := Fig5(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		gc, xs, fb := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		if !(fb < xs && fb < gc) {
			t.Errorf("%s: fastbfs reads %v not below xstream %v and graphchi %v", row[0], fb, xs, gc)
		}
		if red := cell(t, row[5]); red < 30 {
			t.Errorf("%s: read reduction %v%% below 30%%", row[0], red)
		}
		if total := cell(t, row[6]); total <= 0 {
			t.Errorf("%s: overall data amount not reduced (%v%%)", row[0], total)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	tbl, err := Fig6(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		gc, xs, fb := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		if !(gc < xs) {
			t.Errorf("%s: graphchi iowait ratio %v not below xstream %v", row[0], gc, xs)
		}
		if !(fb >= xs) {
			t.Errorf("%s: fastbfs ratio %v below xstream %v (paper: higher)", row[0], fb, xs)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	hdd, err := Fig4(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := Fig7(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ssd.Rows {
		for col := 1; col <= 3; col++ {
			if !(cell(t, ssd.Rows[i][col]) < cell(t, hdd.Rows[i][col])) {
				t.Errorf("%s col %d: SSD not faster than HDD", ssd.Rows[i][0], col)
			}
		}
		fb, xs := cell(t, ssd.Rows[i][3]), cell(t, ssd.Rows[i][2])
		if !(fb < xs) {
			t.Errorf("%s: ordering lost on SSD", ssd.Rows[i][0])
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tbl, err := Fig8(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// I/O bound: 4 threads may help a little but not much; 8 threads are
	// never faster than 4 (paper: performance drops past the cores).
	for col := 1; col <= 2; col++ {
		t1, t4, t8 := cell(t, tbl.Rows[0][col]), cell(t, tbl.Rows[2][col]), cell(t, tbl.Rows[3][col])
		if t4 > t1*1.01 {
			t.Errorf("col %d: 4 threads slower than 1 (%v vs %v)", col, t4, t1)
		}
		if (t1-t4)/t1 > 0.45 {
			t.Errorf("col %d: threads helped too much for an I/O-bound run (%v -> %v)", col, t1, t4)
		}
		if t8 < t4*0.999 {
			t.Errorf("col %d: 8 threads faster than 4 (%v vs %v)", col, t8, t4)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	tbl, err := Fig9(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for col := 2; col <= 3; col++ {
		first := cell(t, tbl.Rows[0][col])
		fourth := cell(t, tbl.Rows[3][col]) // 2GB-equivalent: still disk-based
		last := cell(t, tbl.Rows[4][col])   // 4GB-equivalent: in-memory cliff
		if diff := (first - fourth) / first; diff > 0.25 || diff < -0.25 {
			t.Errorf("col %d: 256MB (%v) vs 2GB (%v) not flat", col, first, fourth)
		}
		if !(last < fourth/2) {
			t.Errorf("col %d: no in-memory cliff at 4GB (%v vs %v)", col, last, fourth)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tbl, err := Fig10(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		xs, fb1, fb2 := cell(t, row[1]), cell(t, row[2]), cell(t, row[3])
		if !(fb2 < fb1) {
			t.Errorf("%s: two disks (%v) not faster than one (%v)", row[0], fb2, fb1)
		}
		if !(fb1 < xs) {
			t.Errorf("%s: single-disk fastbfs (%v) not faster than xstream (%v)", row[0], fb1, xs)
		}
	}
}

func TestDirectionShape(t *testing.T) {
	tbl, err := DirectionSweep(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want {xstream,fastbfs} x {topdown,auto}", len(tbl.Rows))
	}
	// Same BFS result in every cell; the experiment itself enforces the
	// auto-beats-topdown byte bound (and the >= 30% acceptance at the
	// rmat12+ scales). Here check the per-engine shape: top-down rows
	// never switch, auto rows do and are no slower.
	for i := 0; i < len(tbl.Rows); i += 2 {
		td, au := tbl.Rows[i], tbl.Rows[i+1]
		if au[9] != td[9] {
			t.Errorf("%s: auto visited %s, topdown %s", td[0], au[9], td[9])
		}
		if td[7] != "-1" || td[8] != "0" {
			t.Errorf("%s topdown reported a direction switch: switch@%s bu=%s", td[0], td[7], td[8])
		}
		if au[7] == "-1" || au[8] == "0" {
			t.Errorf("%s auto never went bottom-up: switch@%s bu=%s", au[0], au[7], au[8])
		}
		if cell(t, au[2]) > cell(t, td[2]) {
			t.Errorf("%s auto slower than topdown: %s vs %s seconds", td[0], au[2], td[2])
		}
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := tinyCfg()
	for _, id := range []string{"abl-trimstart", "abl-staybuf", "abl-grace", "abl-features"} {
		e := Find(id)
		if e == nil {
			t.Fatalf("missing ablation %s", id)
		}
		tbl, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
		if id != "abl-trimstart" {
			continue
		}
		// Trimming by the edge counts is no slower than the best static
		// threshold, on the fast-converging graph and on the path.
		best, model := map[string]float64{}, map[string]float64{}
		for _, r := range tbl.Rows {
			secs := cell(t, r[2])
			if r[1] == "model" {
				model[r[0]] = secs
			} else if b, ok := best[r[0]]; !ok || secs < b {
				best[r[0]] = secs
			}
		}
		if len(model) != 2 {
			t.Fatalf("%s: model rows for %d graphs, want 2: %v", id, len(model), tbl.Rows)
		}
		for g, secs := range model {
			if !(secs <= best[g]) {
				t.Errorf("%s on %s: the model takes %v s, the best static threshold %v s", id, g, secs, best[g])
			}
		}
	}
}

func TestAblGraceCancellationGradient(t *testing.T) {
	tbl, err := AblGrace(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tbl.Rows[0][2])              // smallest grace
	last := cell(t, tbl.Rows[len(tbl.Rows)-1][2]) // largest grace
	if !(first > 0) {
		t.Error("tiny grace produced no cancellations on a slow stay disk")
	}
	if !(last == 0) {
		t.Errorf("huge grace still cancelled %v writes", last)
	}
}

func TestAblFeaturesNeitherMatchesXStream(t *testing.T) {
	tbl, err := AblFeatures(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	row := func(label string) []string {
		for _, r := range tbl.Rows {
			if r[0] == label {
				return r
			}
		}
		t.Fatalf("no %q row in %v", label, tbl.Rows)
		return nil
	}
	xs, full := row("xstream (reference)"), row("fastbfs full")
	if got, xsRead := cell(t, row("fastbfs, neither")[2]), cell(t, xs[2]); got != xsRead {
		t.Errorf("fastbfs-with-nothing reads %v MB, xstream %v MB", got, xsRead)
	}
	if !(cell(t, full[1]) < cell(t, xs[1])) {
		t.Error("full fastbfs not faster than xstream reference")
	}
	// The update filter removes update traffic from either engine: fewer
	// bytes written (the update files) and read back (the gathers).
	for _, pair := range [][2][]string{
		{row("xstream + update filter"), xs},
		{row("fastbfs full + update filter"), full},
	} {
		on, off := pair[0], pair[1]
		if !(cell(t, on[2]) < cell(t, off[2]) && cell(t, on[3]) < cell(t, off[3])) {
			t.Errorf("%s read/wrote %s/%s MB, %s %s/%s MB", on[0], on[2], on[3], off[0], off[2], off[3])
		}
	}
}

// TestWorkingSetInventory verifies Table I's structural rows: the file
// inventory each engine leaves behind when KeepFiles is set.
func TestWorkingSetInventory(t *testing.T) {
	vol := storage.NewMem()
	ds, err := BuildTuneDataset(vol, tinyCfg().Scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := baseOpts(ds, hddSim(tinyCfg().Scale))
	opts.KeepFiles = true
	if _, err := xstream.Run(vol, ds.Meta.Name, opts); err != nil {
		t.Fatal(err)
	}
	o2 := baseOpts(ds, hddSim(tinyCfg().Scale))
	o2.KeepFiles = true
	if _, err := core.Run(vol, ds.Meta.Name, core.Options{Base: o2}); err != nil {
		t.Fatal(err)
	}
	var haveStay, haveUpd, haveVtx, haveEdge bool
	for _, f := range vol.List() {
		switch {
		case strings.Contains(f, "fastbfs_stay"):
			haveStay = true
		case strings.Contains(f, "_upd"):
			haveUpd = true
		case strings.Contains(f, "_vtx_"):
			haveVtx = true
		case strings.Contains(f, "_edge_"):
			haveEdge = true
		}
	}
	if !haveStay || !haveUpd || !haveVtx || !haveEdge {
		t.Errorf("working set missing classes (stay=%v upd=%v vtx=%v edge=%v): %v",
			haveStay, haveUpd, haveVtx, haveEdge, vol.List())
	}
}
