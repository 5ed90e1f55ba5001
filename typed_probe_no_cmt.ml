let x = ref 0
