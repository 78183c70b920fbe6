package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/samplers"
	"repro/internal/table"
)

// RunTable6 reproduces Table 6: CPU time of offline sample precomputation
// and of answering AQ1, on OpenAQ and a duplicated OpenAQ-Nx (the paper
// duplicates 25x to reach 1 TB; the factor here is Config.Scale). The
// absolute numbers are laptop-scale, but the structure the paper reports
// holds: stratified precomputation costs a small multiple of one full
// query; answering from the sample is orders of magnitude cheaper than
// the full table; Uniform's single pass is the cheapest precompute.
func RunTable6(cfg Config) error {
	cfg.setDefaults()
	openaq, err := datagen.OpenAQ(datagen.OpenAQConfig{Rows: cfg.OpenAQRows, Seed: cfg.Seed + 1})
	if err != nil {
		return err
	}
	big, err := datagen.Scale(openaq, cfg.Scale)
	if err != nil {
		return err
	}
	header(cfg.Out, fmt.Sprintf("Table 6: wall time (ms), precompute + query AQ1, OpenAQ (%d rows) and OpenAQ-%dx (%d rows)",
		openaq.NumRows(), cfg.Scale, big.NumRows()))

	tw := newTab(cfg.Out)
	fmt.Fprintln(tw, "method\tOpenAQ precompute\tOpenAQ query\tOpenAQ-Nx precompute\tOpenAQ-Nx query")

	fullQuery := func(tbl *table.Table) (time.Duration, error) {
		start := time.Now()
		if _, err := plan.Run(tbl, queryAQ1y18, nil, nil); err != nil {
			return 0, err
		}
		if _, err := plan.Run(tbl, queryAQ1y17, nil, nil); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	d1, err := fullQuery(openaq)
	if err != nil {
		return err
	}
	d2, err := fullQuery(big)
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "Full Data\t-\t%d\t-\t%d\n", d1.Milliseconds(), d2.Milliseconds())

	methods := []samplers.Sampler{
		samplers.Uniform{}, samplers.SampleSeek{}, samplers.Congress{}, samplers.RL{}, &samplers.CVOPT{},
	}
	for _, s := range methods {
		cells := make([]int64, 0, 4)
		for _, tbl := range []*table.Table{openaq, big} {
			m := budget(tbl, 0.01)
			rng := rand.New(rand.NewSource(cfg.Seed + 1000))
			start := time.Now()
			rs, err := s.Build(tbl, specAQ1(), m, rng)
			if err != nil {
				return fmt.Errorf("table6 %s: %w", s.Name(), err)
			}
			pre := time.Since(start)
			start = time.Now()
			if _, err := plan.Run(tbl, queryAQ1y18, rs.Rows, rs.Weights); err != nil {
				return err
			}
			if _, err := plan.Run(tbl, queryAQ1y17, rs.Rows, rs.Weights); err != nil {
				return err
			}
			qt := time.Since(start)
			cells = append(cells, pre.Milliseconds(), qt.Milliseconds())
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", s.Name(), cells[0], cells[1], cells[2], cells[3])
	}
	return tw.Flush()
}
