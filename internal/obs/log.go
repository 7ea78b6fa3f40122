package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Logger is a timestamped diagnostics logger. The cmd tools route every
// progress/diagnostic line through it so stdout stays machine-clean for
// reports.
type Logger struct {
	mu     sync.Mutex
	w      io.Writer
	prefix string
}

// NewLogger returns a logger writing to w with the given prefix.
func NewLogger(w io.Writer, prefix string) *Logger { return &Logger{w: w, prefix: prefix} }

// Diag is the process-wide diagnostics logger, writing to stderr.
var Diag = NewLogger(os.Stderr, "snowboard")

// SetPrefix changes the logger's line prefix (typically the tool name).
func (l *Logger) SetPrefix(prefix string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.prefix = prefix
}

// SetOutput redirects the logger.
func (l *Logger) SetOutput(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w = w
}

// Printf writes one timestamped diagnostic line.
func (l *Logger) Printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return
	}
	fmt.Fprintf(l.w, "%s %s: %s\n", time.Now().Format("15:04:05"), l.prefix, fmt.Sprintf(format, args...))
}

// Progress is the live campaign summary served at /progress and printed by
// the periodic reporter: how far stage 1–4 have advanced and at what rate.
type Progress struct {
	UptimeSec      float64 `json:"uptime_sec"`
	FuzzExecs      int64   `json:"fuzz_execs"`
	CorpusSize     int64   `json:"corpus_size"`
	ProfiledTests  int64   `json:"profiled_tests"`
	PMCsIdentified int64   `json:"pmcs_identified"`
	TestsGenerated int64   `json:"tests_generated"`
	TestsExecuted  int64   `json:"tests_executed"`
	TestsExercised int64   `json:"tests_exercised"`
	TrialsRun      int64   `json:"trials_run"`
	Switches       int64   `json:"switches"`
	CoverPairs     int64   `json:"cover_pairs"`
	CoverSegments  int64   `json:"cover_segments"`
	IssuesFound    int64   `json:"issues_found"`
	DetectReports  int64   `json:"detect_reports"`
	QueueDepth     int64   `json:"queue_depth"`
	ExecPerMin     float64 `json:"exec_per_min"`
	ExecP50Ms      float64 `json:"exec_p50_ms"` // median concurrent-test latency
	ExecP99Ms      float64 `json:"exec_p99_ms"` // tail concurrent-test latency
}

// ProgressFrom derives the progress summary from a snapshot. ExecPerMin is
// the concurrent-test throughput over time actually spent executing (the
// exec.test span histogram), matching the paper's §5.4 exec/min metric.
func ProgressFrom(s Snapshot) Progress {
	p := Progress{
		UptimeSec:      s.UptimeSec,
		FuzzExecs:      s.Counter(MFuzzExecs),
		CorpusSize:     s.Gauge(MFuzzCorpus),
		ProfiledTests:  s.Counter(MProfileTests),
		PMCsIdentified: s.Gauge(MPMCIdentified),
		TestsGenerated: s.Counter(MGenTests),
		TestsExecuted:  s.Counter(MExecTests),
		TestsExercised: s.Counter(MSchedChannelHit),
		TrialsRun:      s.Counter(MSchedTrials),
		Switches:       s.Counter(MSchedSwitches),
		CoverPairs:     s.Gauge(MCoverPairs),
		CoverSegments:  s.Gauge(MCoverSegments),
		IssuesFound:    s.Gauge(MIssuesFound),
		DetectReports:  s.Counter(MDetectReports),
		QueueDepth:     s.Gauge(MQueueDepth),
	}
	if h := s.Histogram(MExecTestDur); h.Count > 0 && h.Sum > 0 {
		p.ExecPerMin = float64(h.Count) / (float64(h.Sum) / float64(time.Minute))
		p.ExecP50Ms = float64(h.Quantile(0.5)) / 1e6
		p.ExecP99Ms = float64(h.Quantile(0.99)) / 1e6
	}
	return p
}

// ProgressNow derives the progress summary from the Default registry.
func ProgressNow() Progress { return ProgressFrom(Default.Snapshot()) }

// String renders the one-line progress report.
func (p Progress) String() string {
	return fmt.Sprintf("progress: fuzz=%d corpus=%d profiled=%d pmcs=%d tests=%d/%d exercised=%d trials=%d issues=%d exec/min=%.1f up=%.0fs",
		p.FuzzExecs, p.CorpusSize, p.ProfiledTests, p.PMCsIdentified,
		p.TestsExecuted, p.TestsGenerated, p.TestsExercised, p.TrialsRun,
		p.IssuesFound, p.ExecPerMin, p.UptimeSec)
}

// StartProgress launches a background reporter printing one progress line
// to l every interval (Diag when l is nil). It returns a stop function;
// interval <= 0 disables reporting and returns a no-op stop.
func StartProgress(interval time.Duration, l *Logger) (stop func()) {
	if l == nil {
		l = Diag
	}
	return every(interval, func() { l.Printf("%s", ProgressNow()) })
}

// every runs f on a background ticker until the returned stop is called
// (idempotent); interval <= 0 runs nothing and returns a no-op stop.
func every(interval time.Duration, f func()) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				f()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
