package dynamicity

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"rdnsprivacy/internal/dnswire"
)

// WriteReport writes the result as cmd/dynfind prints it: the prefix
// tallies as a "# " comment, then a prefix,max_daily,change_days header
// and one row per dynamic /24. ReadPrefixes reads it back.
func (r *Result) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "# /24s with PTRs: %d; considered: %d; dynamic: %d\n",
		r.TotalPrefixes, r.ConsideredPrefixes, len(r.DynamicPrefixes))
	fmt.Fprintln(w, "prefix,max_daily,change_days")
	for _, p := range r.DynamicPrefixes {
		v := r.Verdicts[p]
		fmt.Fprintf(w, "%s,%d,%d\n", p, v.MaxDaily, v.ChangeDays)
	}
}

// ReadPrefixes reads a list of prefixes, one a line: a WriteReport
// report, or bare prefixes. Blank lines, "#" comments and the report's
// header are skipped, and a line's first comma-separated field is its
// prefix.
func ReadPrefixes(r io.Reader) (map[dnswire.Prefix]bool, error) {
	out := map[dnswire.Prefix]bool{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, ','); i > 0 {
			line = line[:i]
		}
		if line == "prefix" {
			continue
		}
		p, err := dnswire.ParsePrefix(line)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", line, err)
		}
		out[p] = true
	}
	return out, sc.Err()
}
