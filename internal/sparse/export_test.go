package sparse

// The oracles of oracle_test.go and their byte comparison, for the external
// tests in this directory that feed them real tears.
var (
	AddDiagOracle     = addDiagCOO
	PermuteSymOracle  = permuteSymTwoTranspose
	IsSymmetricOracle = isSymmetricAt
	DiffBits          = diffBits
)
