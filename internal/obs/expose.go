package obs

// Prometheus text exposition (version 0.0.4): every registered family
// renders as a # HELP line, a # TYPE line and one sample line per
// child, families in name order and children in label order, so
// successive scrapes diff cleanly. Histograms render cumulatively with
// le bounds in seconds plus the _sum and _count series. A Registry is
// itself an http.Handler, mounted at GET /metrics by the server and
// the debug listener.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// labelEscaper escapes label values per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels formats {k="v",...}; empty for unlabeled children.
func renderLabels(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// seconds formats a duration as a float seconds literal.
func seconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// Render writes the whole registry in exposition format.
func (r *Registry) Render(w *strings.Builder) {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.render(w)
	}
}

// render writes one family: metadata, then each child sorted by label
// values.
func (f *family) render(w *strings.Builder) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.RLock()
	fn := f.fn
	children := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		children = append(children, c)
	}
	f.mu.RUnlock()
	if fn != nil {
		fmt.Fprintf(w, "%s %d\n", f.name, fn())
		return
	}
	sort.Slice(children, func(i, j int) bool {
		return lessStrings(children[i].labelValues, children[j].labelValues)
	})
	for _, c := range children {
		labels := renderLabels(f.labels, c.labelValues, "")
		switch f.typ {
		case typeCounter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels, c.counter.Value())
		case typeGauge:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labels, c.gauge.Value())
		case typeHistogram:
			c.renderHistogram(w, f)
		}
	}
}

// renderHistogram writes one histogram child: cumulative _bucket
// series over the geometric bounds (in seconds), then _sum and _count.
// All series come from one frozen copy of the counters, so the
// cumulative counts are monotone within a scrape.
func (c *child) renderHistogram(w *strings.Builder, f *family) {
	counts, total := c.hist.freeze()
	cum := int64(0)
	for i := 0; i < latencyBuckets; i++ {
		cum += counts[i]
		// skip interior zero-delta buckets to keep the exposition
		// compact; the first and last bounds always render so parsers
		// see the full range
		if counts[i] == 0 && i != 0 && i != latencyBuckets-1 {
			continue
		}
		_, upper := bucketBounds(i)
		le := seconds(upper)
		labels := renderLabels(f.labels, c.labelValues, `le="`+le+`"`)
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labels, cum)
	}
	inf := renderLabels(f.labels, c.labelValues, `le="+Inf"`)
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, inf, total)
	plain := renderLabels(f.labels, c.labelValues, "")
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, plain, seconds(c.hist.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, plain, total)
}

// ServeHTTP renders the registry — the GET /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var b strings.Builder
	r.Render(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
