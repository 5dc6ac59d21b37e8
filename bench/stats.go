package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// rng is splitmix64: every input the benchmark generates comes from one of
// these, seeded from the workload seed and a stream id, so the same seed
// always gives the same inputs.
type rng struct{ s uint64 }

func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// stream returns the generator for one independent input stream of a seed.
func stream(seed, id uint64) *rng { return &rng{s: mix(seed ^ mix(id))} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a Fisher-Yates shuffle of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// quantile returns the nearest-rank q-quantile of xs (q in (0,1]), or 0
// for no values, which JSON can encode; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values; xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// kindMedianMean is the mean over ops of the median latency of each op's
// kind, in ms: the sum over kinds of the kind's share of the ops times its
// median. Unlike the plain mean, it does not move when a stall or a slow
// spell of the host delays fewer than half of each kind's ops.
func kindMedianMean(lat []time.Duration, kinds []int) float64 {
	byKind := map[int][]float64{}
	for i, d := range lat {
		byKind[kinds[i]] = append(byKind[kinds[i]], ms(d))
	}
	var sum float64
	for _, xs := range byKind {
		sum += float64(len(xs)) * median(xs)
	}
	return sum / float64(max(len(lat), 1))
}

func mean(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(max(len(ds), 1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// digest is a short content hash of lines, order preserved.
func digest(lines []string) string {
	d := newLineDigest()
	for _, l := range lines {
		d.add(l)
	}
	return d.sum()
}

// lineDigest computes digest one line at a time.
type lineDigest struct {
	h hash.Hash
	n int
}

func newLineDigest() *lineDigest { return &lineDigest{h: sha256.New()} }

func (d *lineDigest) add(line string) {
	if d.n > 0 {
		d.h.Write([]byte{'\n'})
	}
	io.WriteString(d.h, line)
	d.n++
}

func (d *lineDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

// peakRSSMB is the process's peak resident set size from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memSampler records, every 10 ms while it runs, the memory the Go runtime
// holds: mapped and not returned to the operating system. Unlike the peak
// RSS, which one unlucky garbage-collection cycle sets, the median of these
// samples is the window's typical footprint.
type memSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []metrics.Sample
	mb      []float64
}

func sampleMem(capacity int) *memSampler {
	s := &memSampler{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		samples: []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		},
		mb: make([]float64, 0, capacity),
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *memSampler) sample() {
	metrics.Read(s.samples)
	s.mb = append(s.mb, float64(s.samples[0].Value.Uint64()-s.samples[1].Value.Uint64())/(1<<20))
}

// median stops the sampler, takes a last sample, and returns the median.
func (s *memSampler) median() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	return median(s.mb)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// hostInfo names the machine a record was measured on.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostInfo {
	return hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}
