package pipeline

// ChosenOnly keeps records with an identified chosen satellite — the
// rows the §5 analyses and the §6 model consume.
func ChosenOnly() Stage {
	return func(rec *Record) (bool, error) {
		return rec.ChosenIdx >= 0, nil
	}
}

// Terminals keeps records from the named terminals only.
func Terminals(names ...string) Stage {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return func(rec *Record) (bool, error) {
		return set[rec.Terminal], nil
	}
}

// Limit stops the run cleanly (ErrStop) once n records have passed —
// the streaming analogue of a LIMIT clause. The source is cancelled
// mid-campaign and the sinks are flushed with what they have.
func Limit(n int) Stage {
	seen := 0
	return func(rec *Record) (bool, error) {
		if seen >= n {
			return false, ErrStop
		}
		seen++
		return true, nil
	}
}
