package load

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// DefaultTraceInterval is the per-sample interval assumed for trace files
// that neither declare one (interval= directive) nor have one supplied by
// the caller.
const DefaultTraceInterval = time.Second

// TraceFile reads a rate series from a file and returns the Trace shape
// replaying it — the bridge from production rate logs to replay studies.
//
// The format is deliberately permissive: rates (queries per second) are
// separated by commas, whitespace, or newlines, so one-rate-per-line logs
// and single-line CSV exports both parse; blank lines and #-comments are
// ignored. An optional "interval=DUR" directive (e.g. interval=500ms),
// anywhere before the first rate, declares the per-sample interval recorded
// in the file. interval selects the caller's override: when positive it
// wins over the file's directive; zero defers to the directive, or
// DefaultTraceInterval when the file has none.
//
// The returned shape is a plain Trace: its Spec() renders the inline
// "trace:interval,rate,..." encoding, so results stay self-describing and
// re-parseable without the original file.
func TraceFile(path string, interval time.Duration) (Shape, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load: trace file: %w", err)
	}
	defer f.Close()

	fileInterval := time.Duration(0)
	var rates []float64
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		for _, tok := range strings.FieldsFunc(text, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == '\r'
		}) {
			if rest, ok := strings.CutPrefix(tok, "interval="); ok {
				if len(rates) > 0 {
					return nil, fmt.Errorf("load: trace file %s:%d: interval= must precede the rates", path, line)
				}
				d, err := time.ParseDuration(rest)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("load: trace file %s:%d: bad interval %q (want a positive Go duration like 1s)", path, line, rest)
				}
				fileInterval = d
				continue
			}
			r, err := strconv.ParseFloat(tok, 64)
			if err != nil || !validRate(r) {
				return nil, fmt.Errorf("load: trace file %s:%d: bad rate %q (want a number of queries per second >= 0)", path, line, tok)
			}
			rates = append(rates, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("load: trace file %s: %w", path, err)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("load: trace file %s holds no rates", path)
	}
	if interval <= 0 {
		interval = fileInterval
	}
	if interval <= 0 {
		interval = DefaultTraceInterval
	}
	return Trace(interval, rates), nil
}
