// Package bench is the experiment harness: one registered experiment per
// table and figure of the FastBFS paper's evaluation (§IV), plus
// ablations over the design knobs DESIGN.md calls out. Each experiment
// regenerates the paper's rows/series on scaled-down datasets and embeds
// the paper's reported numbers so EXPERIMENTS.md can record
// paper-vs-measured side by side.
package bench

import (
	"fmt"
	"strings"
)

// Table is an experiment's output: a labelled grid plus commentary.
type Table struct {
	// ID is the experiment identifier ("fig4", "table2", ...).
	ID string
	// Title matches the paper's caption.
	Title string
	// Header names the columns; Rows are the data cells, formatted.
	Header []string
	Rows   [][]string
	// Notes carries derived observations (speedups, reductions).
	Notes []string
	// PaperNote summarizes what the paper reported for this experiment,
	// for side-by-side comparison in EXPERIMENTS.md.
	PaperNote string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a derived observation.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if t.PaperNote != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.PaperNote)
	}
	return b.String()
}

// Markdown returns the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteByte('\n')
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "- measured: %s\n", n)
	}
	if t.PaperNote != "" {
		fmt.Fprintf(&b, "- paper: %s\n", t.PaperNote)
	}
	return b.String()
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment at the given scale.
	Run func(cfg Config) (*Table, error)
}

// Config parameterizes an experiment run.
type Config struct {
	Scale Scale
	Seed  int64
	// Verbose receives progress lines when non-nil.
	Verbose func(format string, args ...any)
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose != nil {
		c.Verbose(format, args...)
	}
}

// Registry returns every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "BFS convergence: useful edges per level", Run: Fig1},
		{ID: "table1", Title: "Graph representation comparison", Run: TableI},
		{ID: "table2", Title: "Experimental graphs", Run: TableII},
		{ID: "fig4", Title: "Execution time comparison (HDD)", Run: Fig4},
		{ID: "fig5", Title: "Comparison in input data amount", Run: Fig5},
		{ID: "fig6", Title: "iowait time ratio comparison", Run: Fig6},
		{ID: "fig7", Title: "Performance comparison over SSD", Run: Fig7},
		{ID: "fig8", Title: "Performance changes with the number of threads", Run: Fig8},
		{ID: "fig9", Title: "Performance changes with the amount of memory utilization", Run: Fig9},
		{ID: "fig10", Title: "Performance comparison with parallel I/O (2 disks)", Run: Fig10},
		{ID: "abl-trimstart", Title: "Ablation: trim start iteration", Run: AblTrimStart},
		{ID: "abl-staybuf", Title: "Ablation: stay buffer count", Run: AblStayBuffers},
		{ID: "abl-grace", Title: "Ablation: cancellation grace period", Run: AblGrace},
		{ID: "abl-features", Title: "Ablation: trimming / selective scheduling on-off", Run: AblFeatures},
		{ID: "phases", Title: "Per-iteration phase breakdown (traced FastBFS run)", Run: PhaseBreakdown},
		{ID: "direction", Title: "Traversal direction sweep (topdown vs auto hybrid)", Run: DirectionSweep},
		{ID: "codec", Title: "Storage codec sweep (fixed vs delta, ± degree reorder)", Run: CodecSweep},
	}
}

// Find returns the experiment with the given ID, or nil.
func Find(id string) *Experiment {
	for _, e := range Registry() {
		if e.ID == id {
			out := e
			return &out
		}
	}
	return nil
}
