package comm

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// Sample is one (message size, queue latency) observation used by the α–β
// regression. Latency is queue time — send to delivery — because on this
// eager transport that is the end-to-end figure a real wire would charge.
type Sample struct {
	Bytes     int64 `json:"b"`
	LatencyNS int64 `json:"l"`
}

// Link is the merged traffic record for one (src, dst, phase) triple.
// Msgs/Bytes and the latency sums are receive-side (only delivered messages
// have latencies); SentMsgs/SentBytes are send-side. On a clean run the two
// sides agree per link; a shortfall (SentBytes > Bytes) means traffic was
// still in flight when the matrix was taken — on a post-mortem, the wedged
// messages themselves.
type Link struct {
	Src        int    `json:"src"`
	Dst        int    `json:"dst"`
	Phase      string `json:"phase"`
	Msgs       int64  `json:"msgs"`
	Bytes      int64  `json:"bytes"`
	SentMsgs   int64  `json:"sent_msgs"`
	SentBytes  int64  `json:"sent_bytes"`
	QueueNS    int64  `json:"queue_ns"`
	TransferNS int64  `json:"transfer_ns"`
	MaxQueueNS int64  `json:"max_queue_ns"`
	// MaxSeqSent/MaxSeqRcvd are the highest provenance seq observed on each
	// side of the link in this phase bucket. Seqs number the (src, dst)
	// link's messages across all phases, so per pair the max over phase
	// buckets equals the link's lifetime message count — SeqAlignment
	// cross-checks that against the msgs counters to catch double- or
	// under-counting in the accounting itself.
	MaxSeqSent uint64   `json:"max_seq_sent,omitempty"`
	MaxSeqRcvd uint64   `json:"max_seq_rcvd,omitempty"`
	Samples    []Sample `json:"samples,omitempty"`
}

// AvgQueue is the mean mailbox-queue latency of delivered messages.
func (l *Link) AvgQueue() time.Duration {
	if l.Msgs == 0 {
		return 0
	}
	return time.Duration(l.QueueNS / l.Msgs)
}

// Matrix is the world-level communication matrix: every (src, dst, phase)
// link with traffic, sorted by (src, dst, phase). It is self-contained and
// JSON-serializable; mrblast/mrsom write it with -comm and traceview -comm
// renders it.
type Matrix struct {
	NumRanks int    `json:"num_ranks"`
	Links    []Link `json:"links"`
}

func (m *Matrix) sort() {
	sort.Slice(m.Links, func(i, j int) bool {
		a, b := &m.Links[i], &m.Links[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Phase < b.Phase
	})
}

// Totals sums messages and bytes delivered across all links.
func (m *Matrix) Totals() (msgs, bytes int64) {
	for i := range m.Links {
		msgs += m.Links[i].Msgs
		bytes += m.Links[i].Bytes
	}
	return msgs, bytes
}

// PhaseTotal aggregates one phase's traffic across all links.
type PhaseTotal struct {
	Phase      string `json:"phase"`
	Msgs       int64  `json:"msgs"`
	Bytes      int64  `json:"bytes"`
	QueueNS    int64  `json:"queue_ns"`
	MaxQueueNS int64  `json:"max_queue_ns"`
}

// AvgQueue is the phase's mean delivered-message queue latency.
func (p *PhaseTotal) AvgQueue() time.Duration {
	if p.Msgs == 0 {
		return 0
	}
	return time.Duration(p.QueueNS / p.Msgs)
}

// PhaseTotals aggregates the matrix by phase, ordered by descending bytes.
func (m *Matrix) PhaseTotals() []PhaseTotal {
	byPhase := map[string]*PhaseTotal{}
	for i := range m.Links {
		l := &m.Links[i]
		p := byPhase[l.Phase]
		if p == nil {
			p = &PhaseTotal{Phase: l.Phase}
			byPhase[l.Phase] = p
		}
		p.Msgs += l.Msgs
		p.Bytes += l.Bytes
		p.QueueNS += l.QueueNS
		if l.MaxQueueNS > p.MaxQueueNS {
			p.MaxQueueNS = l.MaxQueueNS
		}
	}
	out := make([]PhaseTotal, 0, len(byPhase))
	for _, p := range byPhase {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// TopLinks returns the k heaviest links by delivered bytes (all of them if
// k <= 0 or exceeds the link count), heaviest first.
func (m *Matrix) TopLinks(k int) []Link {
	out := make([]Link, len(m.Links))
	copy(out, m.Links)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// PairBytes folds the matrix over phases into an NumRanks×NumRanks grid of
// delivered bytes, indexed [src][dst].
func (m *Matrix) PairBytes() [][]int64 {
	grid := make([][]int64, m.NumRanks)
	for i := range grid {
		grid[i] = make([]int64, m.NumRanks)
	}
	for i := range m.Links {
		l := &m.Links[i]
		if l.Src < m.NumRanks && l.Dst < m.NumRanks {
			grid[l.Src][l.Dst] += l.Bytes
		}
	}
	return grid
}

// Unaccounted lists links whose send-side counts exceed deliveries —
// traffic in flight (or wedged) when the matrix was taken.
func (m *Matrix) Unaccounted() []Link {
	var out []Link
	for i := range m.Links {
		l := m.Links[i]
		if l.SentMsgs > l.Msgs || l.SentBytes > l.Bytes {
			out = append(out, l)
		}
	}
	return out
}

// SeqSkew describes one (src, dst) pair whose message counters disagree
// with the provenance seq stream: the runtime stamped MaxSeq messages onto
// the link, but the accounting recorded a different number of sends or
// deliveries. SentMsgs < MaxSeq means sends went unrecorded; Msgs < MaxSeq
// with SentMsgs == MaxSeq is the ordinary in-flight shortfall Unaccounted
// already reports; Msgs > MaxSeq or SentMsgs > MaxSeq means double
// counting.
type SeqSkew struct {
	Src, Dst int
	MaxSeq   uint64
	SentMsgs int64
	Msgs     int64
}

// SeqAlignment cross-checks the per-link provenance seqs against the
// msgs counters, pair by pair (phases pooled — seqs number the whole
// link). Pairs without seqs (pre-provenance traces, or matrices recorded
// with accounting but not numbering) are skipped. An empty result means
// every counted pair aligns.
func (m *Matrix) SeqAlignment() []SeqSkew {
	type pair struct{ src, dst int }
	type agg struct {
		maxSeq     uint64
		sent, rcvd int64
	}
	pairs := map[pair]*agg{}
	for i := range m.Links {
		l := &m.Links[i]
		k := pair{l.Src, l.Dst}
		a := pairs[k]
		if a == nil {
			a = &agg{}
			pairs[k] = a
		}
		if l.MaxSeqSent > a.maxSeq {
			a.maxSeq = l.MaxSeqSent
		}
		if l.MaxSeqRcvd > a.maxSeq {
			a.maxSeq = l.MaxSeqRcvd
		}
		a.sent += l.SentMsgs
		a.rcvd += l.Msgs
	}
	var out []SeqSkew
	for k, a := range pairs {
		if a.maxSeq == 0 {
			continue
		}
		if a.sent != int64(a.maxSeq) || a.rcvd > int64(a.maxSeq) {
			out = append(out, SeqSkew{Src: k.src, Dst: k.dst, MaxSeq: a.maxSeq, SentMsgs: a.sent, Msgs: a.rcvd})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// AllSamples concatenates every link's regression samples.
func (m *Matrix) AllSamples() []Sample {
	var out []Sample
	for i := range m.Links {
		out = append(out, m.Links[i].Samples...)
	}
	return out
}

// WriteJSON serializes the matrix.
func (m *Matrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// ReadMatrix parses a matrix written by WriteJSON.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	var m Matrix
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("comm: parsing matrix: %w", err)
	}
	return &m, nil
}

// fmtBytes renders a byte count with a binary-ish human unit, stable enough
// for golden output.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// WriteReport renders the human-readable comm report: totals, per-phase
// aggregates, the src×dst byte grid, the top-k heaviest links, and the α–β
// model fit (global plus per-link when enough samples exist). This is the
// body of `traceview -comm`.
func (m *Matrix) WriteReport(w io.Writer, topK int) error {
	msgs, bytes := m.Totals()
	fmt.Fprintf(w, "comm matrix: %d ranks, %d links, %d msgs, %s delivered\n",
		m.NumRanks, len(m.Links), msgs, fmtBytes(bytes))

	if phases := m.PhaseTotals(); len(phases) > 0 {
		fmt.Fprintf(w, "\nper-phase totals:\n")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  phase\tmsgs\tbytes\tavg queue\tmax queue\n")
		for _, p := range phases {
			name := p.Phase
			if name == "" {
				name = "(none)"
			}
			fmt.Fprintf(tw, "  %s\t%d\t%s\t%v\t%v\n",
				name, p.Msgs, fmtBytes(p.Bytes), p.AvgQueue().Round(time.Microsecond),
				time.Duration(p.MaxQueueNS).Round(time.Microsecond))
		}
		tw.Flush()
	}

	if m.NumRanks > 0 {
		fmt.Fprintf(w, "\nbytes by rank pair (rows send, columns receive):\n")
		grid := m.PairBytes()
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "  \t")
		for d := 0; d < m.NumRanks; d++ {
			fmt.Fprintf(tw, "->%d\t", d)
		}
		fmt.Fprintln(tw)
		for s := 0; s < m.NumRanks; s++ {
			fmt.Fprintf(tw, "  %d\t", s)
			for d := 0; d < m.NumRanks; d++ {
				if grid[s][d] == 0 {
					fmt.Fprintf(tw, ".\t")
				} else {
					fmt.Fprintf(tw, "%s\t", fmtBytes(grid[s][d]))
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}

	if top := m.TopLinks(topK); len(top) > 0 {
		fmt.Fprintf(w, "\ntop %d links by bytes:\n", len(top))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  link\tphase\tmsgs\tbytes\tavg queue\tmax queue\n")
		for i := range top {
			l := &top[i]
			phase := l.Phase
			if phase == "" {
				phase = "(none)"
			}
			fmt.Fprintf(tw, "  %d->%d\t%s\t%d\t%s\t%v\t%v\n",
				l.Src, l.Dst, phase, l.Msgs, fmtBytes(l.Bytes),
				l.AvgQueue().Round(time.Microsecond),
				time.Duration(l.MaxQueueNS).Round(time.Microsecond))
		}
		tw.Flush()
	}

	if skews := m.SeqAlignment(); len(skews) > 0 {
		fmt.Fprintf(w, "\nseq misalignment (provenance stream disagrees with counters):\n")
		for _, s := range skews {
			fmt.Fprintf(w, "  %d->%d: link carried %d msgs by seq, accounting saw %d sent / %d delivered\n",
				s.Src, s.Dst, s.MaxSeq, s.SentMsgs, s.Msgs)
		}
	}

	if lost := m.Unaccounted(); len(lost) > 0 {
		fmt.Fprintf(w, "\nin-flight (sent but not delivered when snapshotted):\n")
		for i := range lost {
			l := &lost[i]
			fmt.Fprintf(w, "  %d->%d phase=%s: %d msgs / %s sent, %d msgs / %s delivered\n",
				l.Src, l.Dst, l.Phase, l.SentMsgs, fmtBytes(l.SentBytes), l.Msgs, fmtBytes(l.Bytes))
		}
	}

	fmt.Fprintf(w, "\nα–β model fit (latency = α + bytes/bandwidth):\n")
	if fit, ok := FitAlphaBeta(m.AllSamples()); ok {
		fmt.Fprintf(w, "  global: %s\n", fit)
	} else {
		fmt.Fprintf(w, "  global: not enough samples\n")
	}
	if fits := m.FitPerLink(8); len(fits) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, lf := range fits {
			fmt.Fprintf(tw, "  %d->%d\t%s\n", lf.Src, lf.Dst, lf.Fit.String())
		}
		tw.Flush()
	}
	return nil
}

// LinkFit pairs a rank pair with its fitted model.
type LinkFit struct {
	Src, Dst int
	Fit      Fit
}

// FitPerLink fits the α–β model separately for each (src, dst) pair with at
// least minSamples samples (phases pooled — the wire does not change between
// phases), ordered by (src, dst).
func (m *Matrix) FitPerLink(minSamples int) []LinkFit {
	type pair struct{ src, dst int }
	bySrcDst := map[pair][]Sample{}
	for i := range m.Links {
		l := &m.Links[i]
		k := pair{l.Src, l.Dst}
		bySrcDst[k] = append(bySrcDst[k], l.Samples...)
	}
	var out []LinkFit
	for k, samples := range bySrcDst {
		if len(samples) < minSamples {
			continue
		}
		if fit, ok := FitAlphaBeta(samples); ok {
			out = append(out, LinkFit{Src: k.src, Dst: k.dst, Fit: fit})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// WritePrometheus appends the matrix totals to a Prometheus text exposition:
// one bytes and one msgs counter per (src, dst, phase) link. The live
// server concatenates this after the registry's families. A nil matrix
// (comm accounting off) writes nothing.
func (m *Matrix) WritePrometheus(w io.Writer) error {
	if m == nil || len(m.Links) == 0 {
		return nil
	}
	esc := func(s string) string {
		s = strings.ReplaceAll(s, `\`, `\\`)
		return strings.ReplaceAll(s, `"`, `\"`)
	}
	fmt.Fprintf(w, "# HELP mpi_comm_bytes_total bytes delivered per (src,dst,phase) link\n")
	fmt.Fprintf(w, "# TYPE mpi_comm_bytes_total counter\n")
	for i := range m.Links {
		l := &m.Links[i]
		fmt.Fprintf(w, "mpi_comm_bytes_total{src=\"%d\",dst=\"%d\",phase=\"%s\"} %d\n",
			l.Src, l.Dst, esc(l.Phase), l.Bytes)
	}
	fmt.Fprintf(w, "# HELP mpi_comm_msgs_total messages delivered per (src,dst,phase) link\n")
	fmt.Fprintf(w, "# TYPE mpi_comm_msgs_total counter\n")
	for i := range m.Links {
		l := &m.Links[i]
		fmt.Fprintf(w, "mpi_comm_msgs_total{src=\"%d\",dst=\"%d\",phase=\"%s\"} %d\n",
			l.Src, l.Dst, esc(l.Phase), l.Msgs)
	}
	// Receiver blocked-on time per link: the Prometheus face of the causal
	// blame table. TransferNS sums the time receivers actually waited inside
	// Recv/Wait for this link's messages, keyed by the phase that *sent*
	// them — scrape two links' series and you see which peer and phase a
	// rank's stalls charge to.
	fmt.Fprintf(w, "# HELP mpi_recv_wait_seconds_total seconds receivers spent blocked waiting on each (src,dst,phase) link\n")
	fmt.Fprintf(w, "# TYPE mpi_recv_wait_seconds_total counter\n")
	for i := range m.Links {
		l := &m.Links[i]
		fmt.Fprintf(w, "mpi_recv_wait_seconds_total{src=\"%d\",dst=\"%d\",phase=\"%s\"} %g\n",
			l.Src, l.Dst, esc(l.Phase), float64(l.TransferNS)/1e9)
	}
	return nil
}
