// @CATEGORY: eval_kernels: global-increment loop at moderate call depth
// @EXPECT: exit 92
// The loop runs 24 calls deep and updates a file-scope counter, so
// every access resolves a global name from a deep frame stack.
int counter = 0;
int spin(int n) {
    for (int i = 0; i < n; i++)
        counter = counter + (i & 3);
    return counter;
}
int descend(int depth, int n) {
    if (depth == 0)
        return spin(n);
    return descend(depth - 1, n) + 1;
}
int main(void) {
    int r = descend(24, 2700);
    return (r + counter) % 251;
}
