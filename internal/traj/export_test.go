package traj

// WriteDatasetV2 writes ds in version 2, the unframed layout the reader
// still reads, for the package's external tests.
var WriteDatasetV2 = writeDatasetRef
