package main

// pinCount is how many input seeds have pinned report digests. The
// benchmark's --seed maps onto them (inputSeed), so every run checks its
// reports against a pin.
const pinCount = 16

// inputSeed maps a --seed onto the pinned input seeds 1..pinCount;
// seeds 1..pinCount map to themselves.
func inputSeed(seed int64) int64 {
	return 1 + ((seed-1)%pinCount+pinCount)%pinCount
}

// pinFor returns the pinned report digest of workload name on input
// seed in.
func pinFor(name string, in int64) string {
	p, ok := pins[name]
	if !ok || in < 1 || in > int64(len(p)) {
		return ""
	}
	return p[in-1]
}

// pins are sha256 digests of each workload's report JSON on input seeds
// 1..pinCount, produced by `perfbench --workload <name> --print-pins 16`
// from uninterrupted runs (region-resume without its snapshot round
// trip, fleet-pop at two workers).
var pins = map[string][]string{
	"fleet-pop": {
		"36e29e8af19abf733435a8701360754d8b2f8bf2741b58351f78a7130f5d2a26", // seed 1
		"f71971531686aee644e12161c8beca3d3cae5ed62192ed0e2985babb2e22abc1", // seed 2
		"294b468840106ad0ef7026452deefac5508e479ae407f225b690d70470c76433", // seed 3
		"6d54df90eed39274695cce2d6ed247edbe0d6f4635141bcb38825c911a4017a5", // seed 4
		"2764ac73c64299e92453d4f980c8ce8a6c5ae0605701c6458c21e344ed3b1786", // seed 5
		"5d99f945b1a75f43906a1f2de678932a40995f684f2ab330c154058b3c468e47", // seed 6
		"c86ea6995cef9490f1e5f732356d3be2f043a3ea83b16bc3b07c5a236d0c612d", // seed 7
		"d101bb9ae00144b3a3c2448fea43b2affde0b24d8952cba6c7838c84592acdda", // seed 8
		"cdb3fdc997c833cb0472c8fa92c3079b36c49d478428536668662968128ed153", // seed 9
		"f3a484b80a73a2390dc59c46bed61aa3ea9a2bb818630714726ed634b8f4d0c0", // seed 10
		"78204be9bf1fa1e9ef01affbed1b929cd96f0c02dffabea7e6406bdceaae3192", // seed 11
		"7cb2392bf19782da1608992f9b07a52532c2d04252bff2ad05b395e4da0b578d", // seed 12
		"fb14fc261a862a3b7b7de0e5d60480dcd81844ff3ef2cbdb25f162589404d11f", // seed 13
		"c982912b5d5b5846e7f59e07cb4da30a502e6d8dfcdcb4abb549ad247d5ab6fb", // seed 14
		"7136fb5af969e45bc90b01088b8d8b8c3a96dedf262ba6038badeac3c54588c8", // seed 15
		"0b6e6231d45d3cece32672634729efd2a5db71bf6d7f0b4a7a1ceb277989347d", // seed 16
	},
	"region-resume": {
		"1b2234119cc8bd6fa603afdd6c565ed93b81c5ab2d20fdf8d62d2108bcc2f88e", // seed 1
		"b2b82ca58ade8707936c36c80a92050ca9ce6a30ff63816f089565e10dee6a88", // seed 2
		"d9efc10f5f4664ecc2b7f9b0529fbd6bfb54a0743d9ab604b61d6dc249451eea", // seed 3
		"ba700db18a3e7fdb67f1d098826438b92a03522c7863a1eed030af16825866ae", // seed 4
		"8d2ba8ea24e0922e0ba7ebf3079049b33e9e02ee164c059b259c5fe2ad7733c0", // seed 5
		"a0bddb4a0ca2e995106450d8ed62e6a96b68f44ad95d692eec1e3a2d9bbef0d2", // seed 6
		"ed69db8f32a7a1fe4be5c0464fea2980bdb3cf21658b5529bc98e7316d16a666", // seed 7
		"2fdf26dc98f5842f7261db67ffcec8b34f194401ccde1e60f8d22a3e3a2a0cd9", // seed 8
		"c1d2017cd9126bf9f21b9509955c84476642e1d99ce6ca53f518044670105ca2", // seed 9
		"b5c8e8c8a03838e7503803fcd6f263cef97b8440725961ee821d17fe0b4e651d", // seed 10
		"b93f021d57393d5bcaed1d1c16b71a03e3faf147041afffaa4578657513b583e", // seed 11
		"d7dbb3387da9f7d80fcbc3de2423cdedab2e5e96b40dbd98da61dfcc2c6741aa", // seed 12
		"bb23e407b1fb033862d15bf854fd832b5bd553d183745eeec785ccd8db88860e", // seed 13
		"7a0de86f7d61977a665c3fc7573e70bbe655451b29a2c50645047845deb94247", // seed 14
		"db3ca7b3ef600d73204c7810b89f3d8ae4379582cd1f56e17ce34d328a7781e7", // seed 15
		"a7f0c688ad38372d6133913fd04ac0d1c83ac9a18547c8ac858938b4966e229d", // seed 16
	},
	"paper-repro": {
		"3504aab84ea040db76587abab6a00d046b7bf7d624442b09829aa09137e72a24", // seed 1
		"15d8336d9647233af4e9e4d328962b10e75e6c6fa59dc0de14e6e2486c8ff8e8", // seed 2
		"e445092906041a9dcaca4f645df83e0c88b2117f22cf3e1d27c8b43cdac53681", // seed 3
		"3e22e8c32144876ea4cd02ac068971adc1a4bfe3b506d8dae4263565953a1d0c", // seed 4
		"5dfbbf0d5b556fd9c9808309592a5c84b2dfb304a9a72016a9bd3c1dba7fe915", // seed 5
		"bd2e55211ab9453d52c2e04c38223fc7936760c194045a75558d7c9410bc675d", // seed 6
		"4b7beb60722d2cf61cd3d6b81c20c88500ed2936cfdddfa445c7b3abd4c733e6", // seed 7
		"ebbb21cc968869deec30ace9f5b3d655bc1559366b5c343cfdb45f3ac15d227d", // seed 8
		"8eae66de5063f448bece325a55d81f06ace07a27b88984113a21ec6a91826b76", // seed 9
		"3fd9d498a356146a0c55937d4df656c1517b0262bd9d7401f1b4e88db6c3eed8", // seed 10
		"1343edb4788d61013ffeac85f6b76de4148cc36d6e7fa48e278f3ca56d47a55f", // seed 11
		"42230fe95051b685a62c38aab7e6169eead2c32296da8aff488ea26d43a4aae7", // seed 12
		"0f13e95b428bfda805c3f5f291d9c28955ee15ba83bec7b70254b204c1e27f86", // seed 13
		"a4869dc9af24d4f0a26127d5dd64edace8382fdf2184d941411965e32f3b270d", // seed 14
		"bc6fe289d9c00a751a0231f456ad994f3dc21f5f5eabcf7482a3f9b74f5944f5", // seed 15
		"7dab607da4be9559a391fb50725cf98a32e043d7d065860ef7aa58e3c379b92e", // seed 16
	},
	"probe-react": {
		"96e36ae39dfee8e85ad9d7dd09e8b6aa45fe86a9b407db978fedd08f4894c59e", // seed 1
		"148313181294ddd8c6b474351b803a0bc0806617a7eebda5644496be1c323e91", // seed 2
		"0e87bfa4464085129395f6180f296e45d39f42eb80af875f33d46e356b2a6b77", // seed 3
		"7f286cc71faf7f799ac0fd69380b4714c46638198c9810b73abc020a2a8971ce", // seed 4
		"621ea8a22fd3f104948e0e2ba0842ff22e8510fcfbdfd61b23432719ebbbc23f", // seed 5
		"3b39e2defcab5694385d89a2b1d938a12313de24074b0e01cfec6aa5e555d811", // seed 6
		"2fb777b7b7019a4d245bddbc6c81f327b144b21af1431b251907a47887452550", // seed 7
		"347a588b260dfbb5b271c2d17b1b072f1f3c0f482f1a3aee2065104bd89ef6ad", // seed 8
		"c49c837ba1e2ace7ef56bbe721fba82f3ea4b243899185274d5d8e8622a14576", // seed 9
		"91f74f492439d2294b71567fe201997bb329d8001a8e4c01b5e2a17ed5c43f43", // seed 10
		"f07c1097479d4e2597e11d1d65729d9830b4fd54f33b0270e4a849b30ecf4eb9", // seed 11
		"a188faa5ad534aa971f565e41c5fd116980c11e0d1c5ad6402f88b333787b2a0", // seed 12
		"36ae49771753d185321e0ede1bcd044af6a427db6b151e7a4c0eb3f5f5a1fa3e", // seed 13
		"32151fbdf3210c793788ee1329b51c1a34bba39d486f27964851ef9bad1ed0fe", // seed 14
		"a9fb0fe64a58e37ecd7ac122d3258a2768760f2026f3b6836376aa24375785f4", // seed 15
		"17ed27275d59b42920382ba118b4dd0d9430d3bf0032d1e970af2901a0d06fae", // seed 16
	},
}
