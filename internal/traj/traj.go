// Package traj defines the trajectory data model and the synthetic
// taxi-fleet simulator that stands in for the paper's 194 GB Shenzhen GPS
// dataset (DESIGN.md §2).
//
// Terminology follows the thesis: a GPS record carries (trajectory ID,
// longitude, latitude, speed, time); one moving object produces one
// trajectory per day, and the same taxi on different dates counts as
// different trajectories when computing reachability probabilities.
package traj

import (
	"fmt"
	"math"
	"time"

	"streach/internal/geo"
	"streach/internal/roadnet"
)

// TaxiID identifies a vehicle across days.
type TaxiID int32

// Day is a zero-based day index within the dataset.
type Day int16

// GPSPoint is one raw GPS record.
type GPSPoint struct {
	Pos   geo.Point
	Time  time.Time
	Speed float64 // instantaneous speed, m/s
}

// Trajectory is one taxi's raw GPS sequence for one day, ordered by time.
type Trajectory struct {
	Taxi   TaxiID
	Day    Day
	Points []GPSPoint
}

// Validate checks ordering and coordinate sanity.
func (tr *Trajectory) Validate() error {
	for i, p := range tr.Points {
		if !p.Pos.Valid() {
			return fmt.Errorf("traj: taxi %d day %d point %d has invalid position %v", tr.Taxi, tr.Day, i, p.Pos)
		}
		if i > 0 && p.Time.Before(tr.Points[i-1].Time) {
			return fmt.Errorf("traj: taxi %d day %d point %d goes back in time", tr.Taxi, tr.Day, i)
		}
	}
	return nil
}

// Visit is one map-matched traversal: the taxi occupied Segment from
// EnterMs to ExitMs (milliseconds since the trajectory's day midnight)
// travelling at Speed m/s on average. The compact 16-byte layout matters:
// datasets hold tens of millions of visits.
type Visit struct {
	Segment roadnet.SegmentID
	EnterMs int32
	ExitMs  int32
	Speed   float32
}

// Enter returns the absolute entry time given the day's midnight.
func (v Visit) Enter(dayStart time.Time) time.Time {
	return dayStart.Add(time.Duration(v.EnterMs) * time.Millisecond)
}

// Exit returns the absolute exit time given the day's midnight.
func (v Visit) Exit(dayStart time.Time) time.Time {
	return dayStart.Add(time.Duration(v.ExitMs) * time.Millisecond)
}

// EnterSec returns the entry time in seconds since the day's midnight.
func (v Visit) EnterSec() float64 { return float64(v.EnterMs) / 1000 }

// MatchedTrajectory is a trajectory projected onto the road network: an
// ordered, connected sequence of segment visits. This is the form the
// index builders consume.
type MatchedTrajectory struct {
	Taxi   TaxiID
	Day    Day
	Visits []Visit
}

// MaxTaxis bounds taxi IDs: the ST-Index packs a taxi into 15 bits of a
// time-list entry, so both index builders and live ingest refuse IDs at
// or above it.
const MaxTaxis = 1 << 15

// CheckVisit reports why v cannot be indexed on a network of numSegments
// segments: a segment outside [0, numSegments), an exit before the
// entry, or a speed that is not a finite number at or above zero. The
// times themselves are not bounded: a visit may start before its day's
// midnight or run past the next one, and the indexes keep the part
// inside the day. The error names neither trajectory nor package;
// callers add them.
func CheckVisit(v Visit, numSegments int) error {
	switch {
	case validVisit(v, numSegments):
		return nil
	case v.Segment < 0 || int(v.Segment) >= numSegments:
		return fmt.Errorf("segment %d outside [0, %d)", v.Segment, numSegments)
	case v.ExitMs < v.EnterMs:
		return fmt.Errorf("exit %d ms before entry %d ms", v.ExitMs, v.EnterMs)
	}
	return fmt.Errorf("speed %v m/s, want a finite number >= 0", v.Speed)
}

// validVisit is CheckVisit's verdict alone, small enough to inline into
// CheckTrajectory's loop over every visit. A NaN speed fails both speed
// comparisons.
func validVisit(v Visit, numSegments int) bool {
	return uint(v.Segment) < uint(numSegments) && v.ExitMs >= v.EnterMs && v.Speed >= 0 && v.Speed <= math.MaxFloat32
}

// CheckTrajectory is the index builders' trust boundary: it checks
// trajectory i of the dataset for indexing on a network of numSegments
// segments. Its taxi must lie in [0, MaxTaxis), its day in [0, Days),
// and every visit must pass CheckVisit. A visit that failed would be
// folded into another key's list or speed cell, or put NaN into a speed
// bound. The error names the trajectory and the visit ("trajectory 3
// visit 7: ..."); callers add their package. Both builders walk the
// visits anyway, and check each trajectory just before its walk, while
// its visits are in cache.
func (ds *Dataset) CheckTrajectory(i, numSegments int) error {
	mt := &ds.Matched[i]
	if mt.Taxi < 0 || mt.Taxi >= MaxTaxis {
		return fmt.Errorf("trajectory %d: taxi %d outside [0, %d)", i, mt.Taxi, MaxTaxis)
	}
	if mt.Day < 0 || int(mt.Day) >= ds.Days {
		return fmt.Errorf("trajectory %d: day %d outside [0, %d)", i, mt.Day, ds.Days)
	}
	for j, v := range mt.Visits {
		if !validVisit(v, numSegments) {
			return fmt.Errorf("trajectory %d visit %d: %w", i, j, CheckVisit(v, numSegments))
		}
	}
	return nil
}

// Dataset bundles the matched trajectories of a fleet over several days,
// as produced by the simulator or the map-matching stage.
type Dataset struct {
	// BaseDate is midnight of day 0 (all days are consecutive).
	BaseDate time.Time
	// Days is the number of days covered.
	Days int
	// Matched holds every matched taxi-day trajectory.
	Matched []MatchedTrajectory
}

// Stats summarises a dataset for Table 4.1-style reporting.
type DatasetStats struct {
	Taxis        int
	Days         int
	Trajectories int
	Visits       int
	GPSEquiv     int // visits are the matched form; raw points ~= visits * (segment time / sampling)
}

// Stats computes dataset statistics.
func (d *Dataset) Stats() DatasetStats {
	taxis := map[TaxiID]bool{}
	visits := 0
	for i := range d.Matched {
		taxis[d.Matched[i].Taxi] = true
		visits += len(d.Matched[i].Visits)
	}
	return DatasetStats{
		Taxis:        len(taxis),
		Days:         d.Days,
		Trajectories: len(d.Matched),
		Visits:       visits,
	}
}

// DayStart returns midnight of day d.
func (d *Dataset) DayStart(day Day) time.Time {
	return d.BaseDate.AddDate(0, 0, int(day))
}

// SecondsOfDay returns t's offset from its day's midnight in seconds,
// relative to base.
func SecondsOfDay(base, t time.Time) int {
	return int(t.Sub(base).Seconds()) % 86400
}
