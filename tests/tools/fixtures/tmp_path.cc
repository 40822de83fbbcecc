// A test naming fixed scratch paths that every other test process
// and checkout on the host shares.
#include <string>

void
scratch(std::string &dir, std::string &bag)
{
    dir = "/tmp/avscope_cache";
    bag = std::string("/tmp/") + "avscope_drive.avbg";
    dir = "tmp/relative";
    dir = "/var/tmp/avscope";
    // "/tmp/in_a_comment" is not a literal.
    dir = "/tmp/allowed"; // avlint: allow(tmp-path)
}
