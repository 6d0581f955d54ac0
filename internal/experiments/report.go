package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
)

// A Report is the structured result of one experiment table: a column
// schema, rows of typed cells and per-report metadata. Generators emit
// Reports instead of printing, and the Renderer given to RunExperiment or
// RunAll turns them into the paper-shaped text tables (locked byte for
// byte by the golden-file tests), JSON or CSV.

// Column describes one column of a report.
type Column struct {
	// Name is the machine-readable key (JSON object key, CSV header).
	Name string `json:"name"`
	// Header is the text-table header; Name when empty.
	Header string `json:"header,omitempty"`
	// Type documents the cell type: "string", "int", "float" or
	// "percent" (a fraction; text rendering shows it ×100 with a % sign).
	Type string `json:"type"`
	// Format is the text-table fmt verb ("%d", "%.3e", ...); the default
	// renders percents via pct and everything else via %v.
	Format string `json:"-"`
}

func (c Column) header() string {
	if c.Header != "" {
		return c.Header
	}
	return c.Name
}

// Row is one report row; cells align with the report's Columns.
type Row []any

// Meta carries per-report run metadata.
type Meta struct {
	Scale      float64  `json:"scale,omitempty"`
	Seed       uint64   `json:"seed,omitempty"`
	Intervals  int      `json:"intervals,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	Threshold  uint32   `json:"threshold,omitempty"`
	LFSRTrials int      `json:"lfsr_trials,omitempty"`
	// CacheRuns/CacheHits snapshot the shared result cache when the
	// report was produced (cumulative across the invocation's targets).
	CacheRuns int   `json:"cache_runs,omitempty"`
	CacheHits int64 `json:"cache_hits,omitempty"`
	// ContextBuilds/ContextReuses snapshot the run-context pool: how many
	// cache misses built a fresh context stack versus rewound a warm one.
	ContextBuilds int64 `json:"context_builds,omitempty"`
	ContextReuses int64 `json:"context_reuses,omitempty"`
}

// Report is one rendered-table's worth of structured results.
type Report struct {
	// Name identifies the generator ("fig8") or sub-table
	// ("ablations/ladders"); multi-table generators emit one Report per
	// table, distinguished by Meta (e.g. Threshold).
	Name    string   `json:"name"`
	Title   string   `json:"title,omitempty"`
	Columns []Column `json:"columns,omitempty"`
	Rows    []Row    `json:"rows,omitempty"`
	// Notes are trailing annotation lines rendered inside the text table
	// (they may carry tab-separated cells that align with the columns).
	Notes []string `json:"notes,omitempty"`
	// NoHeader suppresses the text header line (Table I style).
	NoHeader bool `json:"no_header,omitempty"`
	Meta     Meta `json:"meta"`
}

// annotated is a cell whose text-table form carries extra annotation
// ("1.23e-05*", "64K") while its machine form stays typed.
type annotated struct {
	v    any
	text string
}

// annotate builds an annotated cell.
func annotate(v any, text string) any { return annotated{v: v, text: text} }

// machine unwraps a cell to its machine-readable value.
func machine(v any) any {
	if a, ok := v.(annotated); ok {
		return a.v
	}
	return v
}

// text renders one cell for the text table.
func (c Column) text(v any) string {
	if a, ok := v.(annotated); ok {
		return a.text
	}
	switch {
	case v == nil:
		return ""
	case c.Format != "":
		return fmt.Sprintf(c.Format, v)
	case c.Type == "percent":
		return pct(toFloat(v))
	default:
		return fmt.Sprint(v)
	}
}

func toFloat(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case int:
		return float64(n)
	case int64:
		return float64(n)
	}
	return 0
}

// renderText writes the report as one aligned text table: title, header
// (unless NoHeader), rows, then notes, all inside a single tabwriter block
// so note cells participate in column alignment exactly as the historical
// hand-written tables did.
func (r *Report) renderText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if r.Title != "" {
		fmt.Fprintln(tw, r.Title)
	}
	if len(r.Columns) > 0 && !r.NoHeader {
		cells := make([]string, len(r.Columns))
		for i, c := range r.Columns {
			cells[i] = c.header()
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	for _, row := range r.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			if i < len(r.Columns) {
				cells[i] = r.Columns[i].text(v)
			} else {
				cells[i] = fmt.Sprint(v)
			}
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	for _, n := range r.Notes {
		fmt.Fprintln(tw, n)
	}
	return tw.Flush()
}

// reportJSON is the wire form: rows become column-keyed objects.
type reportJSON struct {
	Name     string           `json:"name"`
	Title    string           `json:"title,omitempty"`
	Columns  []Column         `json:"columns,omitempty"`
	Rows     []map[string]any `json:"rows,omitempty"`
	Notes    []string         `json:"notes,omitempty"`
	NoHeader bool             `json:"no_header,omitempty"`
	Meta     Meta             `json:"meta"`
}

// MarshalJSON renders rows as objects keyed by column name, with annotated
// cells reduced to their machine values.
func (r Report) MarshalJSON() ([]byte, error) {
	out := reportJSON{
		Name: r.Name, Title: r.Title, Columns: r.Columns,
		Notes: r.Notes, NoHeader: r.NoHeader, Meta: r.Meta,
	}
	for _, row := range r.Rows {
		obj := make(map[string]any, len(row))
		for i, v := range row {
			if i < len(r.Columns) {
				obj[r.Columns[i].Name] = machine(v)
			}
		}
		out.Rows = append(out.Rows, obj)
	}
	return json.Marshal(out)
}

// UnmarshalJSON reconstructs rows in column order; cells decode by the
// column's declared type.
func (r *Report) UnmarshalJSON(data []byte) error {
	var in reportJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*r = Report{
		Name: in.Name, Title: in.Title, Columns: in.Columns,
		Notes: in.Notes, NoHeader: in.NoHeader, Meta: in.Meta,
	}
	for _, obj := range in.Rows {
		row := make(Row, len(in.Columns))
		for i, c := range in.Columns {
			v, ok := obj[c.Name]
			if !ok {
				continue
			}
			switch c.Type {
			case "int":
				if f, ok := v.(float64); ok {
					row[i] = int64(f)
					continue
				}
			}
			row[i] = v
		}
		r.Rows = append(r.Rows, row)
	}
	return nil
}

// Renderer consumes a stream of reports. Report is called as each report
// completes (so text output interleaves with live progress lines); Flush
// terminates the stream (the JSON renderer emits its array there).
type Renderer interface {
	Report(r *Report) error
	Flush() error
}

type textRenderer struct{ w io.Writer }

// NewTextRenderer renders each report as an aligned text table,
// byte-identical to the historical per-figure output.
func NewTextRenderer(w io.Writer) Renderer { return &textRenderer{w: w} }

func (t *textRenderer) Report(r *Report) error { return r.renderText(t.w) }
func (t *textRenderer) Flush() error           { return nil }

type jsonRenderer struct {
	w       io.Writer
	reports []*Report
}

// NewJSONRenderer collects every report and writes one indented JSON array
// of Reports on Flush.
func NewJSONRenderer(w io.Writer) Renderer { return &jsonRenderer{w: w} }

func (j *jsonRenderer) Report(r *Report) error {
	j.reports = append(j.reports, r)
	return nil
}

func (j *jsonRenderer) Flush() error {
	enc := json.NewEncoder(j.w)
	enc.SetIndent("", "  ")
	if j.reports == nil {
		j.reports = []*Report{}
	}
	return enc.Encode(j.reports)
}

type csvRenderer struct {
	w     io.Writer
	first bool
}

// NewCSVRenderer writes each report as a CSV block: a "# name: title"
// comment line, the column-name header record, then machine-form rows
// (percent cells stay raw fractions). Blocks are blank-line separated;
// notes are omitted.
func NewCSVRenderer(w io.Writer) Renderer { return &csvRenderer{w: w, first: true} }

func (c *csvRenderer) Report(r *Report) error {
	if !c.first {
		if _, err := io.WriteString(c.w, "\n"); err != nil {
			return err
		}
	}
	c.first = false
	if _, err := fmt.Fprintf(c.w, "# %s: %s\n", r.Name, r.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(c.w)
	header := make([]string, len(r.Columns))
	for i, col := range r.Columns {
		header[i] = col.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = csvCell(machine(v))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func (c *csvRenderer) Flush() error { return nil }

func csvCell(v any) string {
	switch n := v.(type) {
	case nil:
		return ""
	case string:
		return n
	case float64:
		return strconv.FormatFloat(n, 'g', -1, 64)
	case int:
		return strconv.Itoa(n)
	case int64:
		return strconv.FormatInt(n, 10)
	case uint32:
		return strconv.FormatUint(uint64(n), 10)
	case uint64:
		return strconv.FormatUint(n, 10)
	}
	return fmt.Sprint(v)
}
