//go:build race

package operators

func init() { raceEnabled = true }
