package load

import (
	"fmt"
	"time"
)

// Slot is one constant-RPS segment of a schedule.
type Slot struct {
	// Dur is the slot's length (JSON: integer nanoseconds).
	Dur time.Duration `json:"dur_ns"`
	// RPS is the target request rate during the slot.
	RPS float64 `json:"rps"`
}

// Schedule is a piecewise-constant RPS target: the trace-synthesizer shape
// (vhive invitro) with four builders over one representation. Arrival
// times are a pure function of the schedule, so two runs of the same
// schedule always issue the same request sequence.
type Schedule struct {
	Kind  string `json:"kind"`
	Slots []Slot `json:"slots"`
}

// Constant holds rps for dur.
func Constant(rps float64, dur time.Duration) Schedule {
	return Schedule{Kind: "constant", Slots: []Slot{{Dur: dur, RPS: rps}}}
}

// Ramp climbs linearly from `from` to `to` over `slots` equal slots of
// slotDur each.
func Ramp(from, to float64, slots int, slotDur time.Duration) Schedule {
	if slots < 1 {
		slots = 1
	}
	s := Schedule{Kind: "ramp"}
	for i := 0; i < slots; i++ {
		frac := 0.0
		if slots > 1 {
			frac = float64(i) / float64(slots-1)
		}
		s.Slots = append(s.Slots, Slot{Dur: slotDur, RPS: from + (to-from)*frac})
	}
	return s
}

// Sweep steps from `from` by `step` up to and including `to` (the
// sweep-to-saturation mode: drive each step for slotDur and read the knee
// where achieved RPS stops following the target).
func Sweep(from, step, to float64, slotDur time.Duration) Schedule {
	if step <= 0 {
		step = from
	}
	s := Schedule{Kind: "sweep"}
	for rps := from; rps <= to+1e-9; rps += step {
		s.Slots = append(s.Slots, Slot{Dur: slotDur, RPS: rps})
	}
	return s
}

// Burst alternates base-rate slots with burst-rate slots: each period
// starts with (period - burstDur) at base RPS and ends with burstDur at
// burst RPS, repeated for total.
func Burst(base, burst float64, period, burstDur, total time.Duration) Schedule {
	if burstDur >= period {
		burstDur = period / 2
	}
	s := Schedule{Kind: "burst"}
	for at := time.Duration(0); at < total; at += period {
		calm := period - burstDur
		if at+calm > total {
			calm = total - at
		}
		s.Slots = append(s.Slots, Slot{Dur: calm, RPS: base})
		if at+period <= total {
			s.Slots = append(s.Slots, Slot{Dur: burstDur, RPS: burst})
		}
	}
	return s
}

// Duration returns the schedule's total length.
func (s Schedule) Duration() time.Duration {
	var d time.Duration
	for _, sl := range s.Slots {
		d += sl.Dur
	}
	return d
}

// Validate rejects schedules the runner cannot pace.
func (s Schedule) Validate() error {
	if len(s.Slots) == 0 {
		return fmt.Errorf("schedule has no slots")
	}
	for i, sl := range s.Slots {
		if sl.Dur <= 0 {
			return fmt.Errorf("slot %d: non-positive duration %v", i, sl.Dur)
		}
		if sl.RPS < 0 {
			return fmt.Errorf("slot %d: negative rps %g", i, sl.RPS)
		}
		if sl.RPS > 1e6 {
			return fmt.Errorf("slot %d: rps %g over the 1e6 cap", i, sl.RPS)
		}
	}
	return nil
}

// arrival is one scheduled request: its offset from run start and the slot
// it belongs to.
type arrival struct {
	at   time.Duration
	slot int
}

// arrivals expands the schedule into per-request target times: slot k of
// rate R and length D contributes round(R*D.Seconds()) arrivals spaced
// evenly through the slot. Pure integer/float arithmetic on fixed inputs —
// identical across runs.
func (s Schedule) arrivals() []arrival {
	var out []arrival
	var start time.Duration
	for i, sl := range s.Slots {
		n := int(sl.RPS*sl.Dur.Seconds() + 0.5)
		for k := 0; k < n; k++ {
			off := time.Duration(float64(k) / sl.RPS * float64(time.Second))
			out = append(out, arrival{at: start + off, slot: i})
		}
		start += sl.Dur
	}
	return out
}

// ParseSchedule builds a schedule from the baload flag set: kind plus the
// generic rate/step/slot knobs, with per-kind interpretation.
func ParseSchedule(kind string, rps, rpsMax, step float64, slotDur, total time.Duration) (Schedule, error) {
	if rps <= 0 {
		return Schedule{}, fmt.Errorf("rps must be positive, got %g", rps)
	}
	switch kind {
	case "constant":
		return Constant(rps, total), nil
	case "ramp", "sweep", "burst":
		// Ramp divides the run by the slot length and burst steps through
		// it one period at a time, so a zero or negative slot would panic
		// or never end.
		if slotDur <= 0 {
			return Schedule{}, fmt.Errorf("-slot must be positive for a %s schedule, got %v", kind, slotDur)
		}
	default:
		return Schedule{}, fmt.Errorf("unknown schedule %q (known: burst, constant, ramp, sweep)", kind)
	}
	switch kind {
	case "ramp":
		if rpsMax <= 0 {
			rpsMax = rps * 4
		}
		slots := int(total / slotDur)
		if slots < 1 {
			slots = 1
		}
		return Ramp(rps, rpsMax, slots, slotDur), nil
	case "sweep":
		if rpsMax <= 0 {
			rpsMax = rps * 8
		}
		if step <= 0 {
			step = rps
		}
		return Sweep(rps, step, rpsMax, slotDur), nil
	default: // burst
		if rpsMax <= 0 {
			rpsMax = rps * 4
		}
		return Burst(rps, rpsMax, 4*slotDur, slotDur, total), nil
	}
}
