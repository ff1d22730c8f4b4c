// @CATEGORY: eval_kernels: array loads and stores
// @EXPECT: exit 242
// A small integer matrix product over stack arrays: bounds-checked
// scalar loads and stores through array subscripts.
int main(void) {
    int a[12][12];
    int b[12][12];
    int c[12][12];
    for (int i = 0; i < 12; i++)
        for (int j = 0; j < 12; j++) {
            a[i][j] = (i + 2 * j) % 7;
            b[i][j] = (3 * i + j) % 5;
        }
    for (int i = 0; i < 12; i++)
        for (int j = 0; j < 12; j++) {
            int s = 0;
            for (int k = 0; k < 12; k++)
                s += a[i][k] * b[k][j];
            c[i][j] = s;
        }
    unsigned long sum = 0;
    for (int i = 0; i < 12; i++)
        for (int j = 0; j < 12; j++)
            sum += (unsigned long)(c[i][j] * (i + 1));
    return (int)(sum % 251u);
}
