//===- Process.cpp - Child processes the benchmark starts -----------------===//

#include "Process.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace lssbench {

ChildProcess::~ChildProcess() {
  if (Pid > 0) {
    kill(SIGKILL);
    wait();
  }
  if (OutFd >= 0)
    ::close(OutFd);
}

bool ChildProcess::start(const std::vector<std::string> &Argv,
                         std::string &Err) {
  if (OutFd >= 0)
    ::close(OutFd);
  OutFd = -1;
  Pending.clear();
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Parent = ::getpid();
  pid_t P = ::fork();
  if (P < 0) {
    Err = std::string("fork: ") + std::strerror(errno);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return false;
  }
  if (P == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != Parent)
      ::_exit(127);
    ::dup2(Pipe[1], STDOUT_FILENO);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    ::execv(Args[0], Args.data());
    ::_exit(127);
  }
  ::close(Pipe[1]);
  Pid = P;
  OutFd = Pipe[0];
  return true;
}

bool ChildProcess::readLine(std::string &Line, int TimeoutMs) {
  for (;;) {
    size_t NL = Pending.find('\n');
    if (NL != std::string::npos) {
      Line = Pending.substr(0, NL);
      Pending.erase(0, NL + 1);
      return true;
    }
    struct pollfd PFD = {OutFd, POLLIN, 0};
    int R = ::poll(&PFD, 1, TimeoutMs);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      return false;
    char Buf[4096];
    ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Pending.append(Buf, size_t(N));
  }
}

std::string ChildProcess::readAll() {
  std::string Out = std::move(Pending);
  Pending.clear();
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Out.append(Buf, size_t(N));
  }
  return Out;
}

int ChildProcess::wait() {
  if (Pid <= 0)
    return -1;
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  Pid = -1;
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  return 128 + (WIFSIGNALED(Status) ? WTERMSIG(Status) : 0);
}

void ChildProcess::kill(int Signal) {
  if (Pid > 0)
    ::kill(Pid, Signal);
}

} // namespace lssbench
