//go:build !race

package learn_test

const raceEnabled = false
