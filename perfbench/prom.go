package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrape is one /metrics page: every sample keyed by its series as
// printed (name plus label set).
type scrape map[string]float64

// fetchScrape GETs and parses a Prometheus text page.
func fetchScrape(c *http.Client, url string) (scrape, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return parseScrape(resp.Body)
}

func parseScrape(rd io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: bad sample %q", line)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// delta returns s − base for one series.
func (s scrape) delta(base scrape, series string) float64 { return s[series] - base[series] }

// histP50 estimates the median of one histogram series over the
// window between base and s, interpolating linearly inside the bucket
// the median falls in (telemetry histograms have fixed coarse bounds).
// labels is the series' label set without le, e.g. `route="GET /x"`.
func (s scrape) histP50(base scrape, name, labels string) float64 {
	type bucket struct{ le, n float64 }
	prefix := name + "_bucket{" + labels + ",le=\""
	var bs []bucket
	for series := range s {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, "\"}"), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le: le, n: s.delta(base, series)})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := s.delta(base, name+"_count{"+labels+"}")
	if total == 0 {
		return 0
	}
	half := total / 2
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= half {
			frac := ratio(half-prev, b.n-prev)
			return (lo + frac*(b.le-lo)) * 1000
		}
		lo, prev = b.le, b.n
	}
	return lo * 1000
}
