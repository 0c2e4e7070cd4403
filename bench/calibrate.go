package main

// The machine this benchmark runs on is a few virtual CPUs of a shared host,
// and the host changes speed: for minutes at a time everything — queries,
// set-up, HTTP round trips — runs 30–40 % slower, then recovers. Repetition
// inside a run does not average that away. So the harness times a fixed
// reference computation of its own, which no code of the repository takes
// part in, between the set-ups and between the repetitions of a run, and
// reports times in *calibrated* seconds: seconds in which the reference
// computation gets as much done as it does in a second at calNominalNs per
// round. A change to the repository moves the measured work and not the
// reference, so it shows in full; a slow spell of the host moves both and
// cancels.

// calNominalNs is the duration of one round of the reference computation that
// defines the calibrated second: about what it takes on the 2-vCPU Xeon
// 2.1 GHz machine the benchmark was written on, in its fast state, where
// calibrated and wall-clock time therefore roughly agree.
const calNominalNs = 1.15e6

const (
	calFloats = 8 << 10 // floats in the array: 32 KiB, resident in the first-level cache
	calPasses = 384     // passes over it per round
	calRounds = 5       // rounds per sample
)

// calibrator holds the reference computation's fixed input. It does not
// depend on the seed: every run of every workload times the same work.
type calibrator struct {
	xs   []float32
	sink float32
	// speeds are the samples taken since the last reset: the nominal round
	// time over the measured one, so 1 is the reference machine in its fast
	// state and 0.65 a host a third slower.
	speeds []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{xs: make([]float32, calFloats)}
	x := uint32(2463534242) // xorshift32
	for i := range c.xs {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.xs[i] = float32(x>>8) / (1 << 24)
	}
	return c
}

// round is one round of the reference computation, on one CPU: four
// independent chains of multiply-adds over an array that stays in the
// first-level cache, so that it keeps the core's arithmetic units as busy as
// the kernels of a query do and depends on nothing outside the core. (Passes
// over an 8 MiB array and random reads into it were tried as further parts
// and left out: their times followed the neighbours' use of the shared cache
// and memory, which the workloads' own times did not, and in the one slow
// spell seen with them the mixture slowed by 27 % where float_small's queries
// slowed by 44 %.)
func (c *calibrator) round() float32 {
	var s0, s1, s2, s3 float32
	xs := c.xs
	for p := 0; p < calPasses; p++ {
		for i := 0; i+4 <= len(xs); i += 4 {
			s0 += xs[i] * xs[i]
			s1 += xs[i+1] * xs[i+1]
			s2 += xs[i+2] * xs[i+2]
			s3 += xs[i+3] * xs[i+3]
		}
	}
	return s0 + s1 + s2 + s3
}

// take adds n samples of the host's speed, about 6 ms each. A sample times
// calRounds rounds and goes by their median: what the yardstick measures is
// how fast the host runs instructions, which is what the slow spells change —
// a round that lost the CPU for a few milliseconds is an outlier and drops
// out, as the repetition it would have hit does from a metric's median.
func (c *calibrator) take(n int) {
	for ; n > 0; n-- {
		var times [calRounds]float64
		for r := range times {
			t0 := now()
			c.sink = c.round()
			times[r] = float64(now() - t0)
		}
		c.speeds = append(c.speeds, calNominalNs/median(times[:]))
	}
}

// speed is the host's speed over the samples taken since the last reset:
// their median.
func (c *calibrator) speed() float64 { return median(c.speeds) }

func (c *calibrator) reset() { c.speeds = nil }

// calibrated converts a wall-clock timing metric into calibrated time: a
// duration is multiplied by the host's speed, a rate divided by it.
func calibrated(v e2eValue, speed float64) e2eValue {
	factor := speed
	if v.Unit == "1/s" {
		factor = 1 / speed
	}
	v.Raw = v.Median
	v.Median *= factor
	for i := range v.Reps {
		v.Reps[i] *= factor
	}
	return v
}
