package cluster

// RaceEnabled tells the external test package whether the race detector
// is on.
const RaceEnabled = raceEnabled
